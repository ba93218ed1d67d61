// Package service is the resident triangle query service: a registry of
// named, long-lived pdtl.Graph handles, an admission controller bounding
// concurrent engine runs, a memoizing result cache with per-graph
// single-flight, and an HTTP/JSON API over all of it (server.go). It turns
// the one-shot CLI workflow into a multi-tenant process that amortizes
// PDTL's cacheable preprocessing (orientation — see handle.go) and its
// results across every request. DESIGN.md §8 describes the architecture.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pdtl"
)

// ErrUnknownGraph is returned for requests naming a graph the registry does
// not hold (never registered, or evicted).
var ErrUnknownGraph = errors.New("service: unknown graph")

// ErrRegistryClosed is returned by registry operations after Close.
var ErrRegistryClosed = errors.New("service: registry is closed")

// maxCachedResults bounds the memoized results kept per graph entry. The
// option space users actually exercise is tiny (a few worker counts ×
// schedulers), so 256 is effectively "everything" while still bounding a
// key-sweeping client.
const maxCachedResults = 256

// Origin reports how a request was satisfied: by executing an engine run,
// by joining an identical in-flight run (single-flight), or from the
// memoized result cache.
type Origin string

const (
	OriginRun    Origin = "run"
	OriginShared Origin = "shared"
	OriginCache  Origin = "cache"
)

// Registry holds the service's named graph handles with an LRU bound on how
// many stay open. Each entry owns the per-graph result cache and
// single-flight table; re-registering a name replaces the entry wholesale,
// which is what invalidates every memoized result for the old store.
type Registry struct {
	mu      sync.Mutex
	maxOpen int
	closed  bool
	clock   uint64
	gen     uint64
	entries map[string]*Entry
}

// NewRegistry creates a registry keeping at most maxOpen graphs open
// (non-positive means unbounded). Past the bound, registering a new graph
// evicts the least recently used one.
func NewRegistry(maxOpen int) *Registry {
	return &Registry{maxOpen: maxOpen, entries: make(map[string]*Entry)}
}

// Entry is one registered graph: the long-lived handle plus the caches the
// service layers on top of it. A live entry additionally carries the
// mutable overlay; its memoized results are invalidated wholesale on every
// mutation batch (see Invalidate).
type Entry struct {
	name string
	base string
	gen  uint64
	g    *pdtl.Graph
	live *pdtl.LiveGraph // nil for immutable entries

	// lastUse is the registry clock at the entry's last lookup; guarded by
	// the Registry mutex.
	lastUse uint64

	mu      sync.Mutex
	cache   map[string]any
	order   []string // cache keys in insertion order, for bounded eviction
	flights map[string]*flight
	// mutGen counts mutation batches applied to a live entry. A run that
	// started under an older generation is never memoized: its result was
	// computed against a view that no longer answers for the graph.
	mutGen uint64
}

// Name reports the entry's registered name.
func (e *Entry) Name() string { return e.name }

// Base reports the store path the entry's handle was opened on.
func (e *Entry) Base() string { return e.base }

// Gen reports the entry's registration generation (bumped on every
// Register, so re-registrations are observable).
func (e *Entry) Gen() uint64 { return e.gen }

// Graph returns the entry's handle.
func (e *Entry) Graph() *pdtl.Graph { return e.g }

// Live returns the entry's mutable overlay, or nil for immutable entries.
func (e *Entry) Live() *pdtl.LiveGraph { return e.live }

// Invalidate drops every memoized result and bumps the mutation generation,
// so runs already in flight (computed against the pre-mutation view) finish
// for their waiters but are not cached. Called after each applied batch.
func (e *Entry) Invalidate() {
	e.mu.Lock()
	e.mutGen++
	e.cache = make(map[string]any)
	e.order = nil
	e.mu.Unlock()
}

// close releases the entry's handle (and overlay, for live entries).
func (e *Entry) close() {
	if e.live != nil {
		e.live.Close() // closes the underlying handle too
		return
	}
	e.g.Close()
}

// CachedResults reports how many memoized results the entry holds.
func (e *Entry) CachedResults() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// Register opens the store at base and binds it to name, replacing (and
// closing) any previous handle under that name — the previous entry's
// memoized results die with it. Past the registry's LRU bound the least
// recently used other entry is evicted and closed.
func (r *Registry) Register(name, base string) (*Entry, error) {
	g, err := pdtl.Open(base)
	if err != nil {
		return nil, err
	}
	e, err := r.attach(name, base, g, nil)
	if err != nil {
		g.Close()
		return nil, err
	}
	return e, nil
}

// RegisterLive opens the store at base wrapped in a mutable delta overlay
// (pdtl.OpenLive) and binds it to name. The entry then accepts edge
// mutations; each applied batch invalidates its memoized results.
func (r *Registry) RegisterLive(ctx context.Context, name, base string, opt pdtl.LiveOptions) (*Entry, error) {
	lg, err := pdtl.OpenLive(ctx, base, opt)
	if err != nil {
		return nil, err
	}
	e, err := r.attach(name, base, lg.Handle(), lg)
	if err != nil {
		lg.Close()
		return nil, err
	}
	return e, nil
}

// attach binds g, and lg for a live graph, to name. The registry owns them
// from here on: they are closed on eviction, replacement and registry close.
func (r *Registry) attach(name, base string, g *pdtl.Graph, lg *pdtl.LiveGraph) (*Entry, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRegistryClosed
	}
	r.gen++
	r.clock++
	e := &Entry{
		name:    name,
		base:    base,
		gen:     r.gen,
		g:       g,
		live:    lg,
		lastUse: r.clock,
		cache:   make(map[string]any),
		flights: make(map[string]*flight),
	}
	var closing []*Entry
	if old, ok := r.entries[name]; ok {
		closing = append(closing, old)
	}
	r.entries[name] = e
	for r.maxOpen > 0 && len(r.entries) > r.maxOpen {
		var lru *Entry
		for _, cand := range r.entries {
			if cand == e {
				continue
			}
			if lru == nil || cand.lastUse < lru.lastUse {
				lru = cand
			}
		}
		if lru == nil {
			break
		}
		delete(r.entries, lru.name)
		closing = append(closing, lru)
	}
	r.mu.Unlock()
	// Closing outside the lock: handle Close never blocks on in-flight
	// runs, but there is no reason to hold the registry over it either.
	for _, old := range closing {
		old.close()
	}
	return e, nil
}

// Get looks a graph up by name and touches its LRU recency.
func (r *Registry) Get(name string) (*Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrRegistryClosed
	}
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	r.clock++
	e.lastUse = r.clock
	return e, nil
}

// Evict removes and closes the named graph. Runs already executing on the
// handle finish; runs that have not started yet fail with pdtl.ErrClosed.
func (r *Registry) Evict(name string) bool {
	r.mu.Lock()
	e, ok := r.entries[name]
	if ok {
		delete(r.entries, name)
	}
	r.mu.Unlock()
	if ok {
		e.close()
	}
	return ok
}

// Len reports how many graphs are registered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Snapshot returns the current entries, most recently used first.
func (r *Registry) Snapshot() []*Entry {
	r.mu.Lock()
	entries := make([]*Entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].lastUse > entries[j-1].lastUse; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	return entries
}

// Close evicts and closes every entry and fails all later operations.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := r.entries
	r.entries = make(map[string]*Entry)
	r.mu.Unlock()
	for _, e := range entries {
		e.close()
	}
}

// flight is one in-flight memoizable run that concurrent identical requests
// share. The run's context is derived from the server's base context and is
// cancelled when the last interested waiter abandons the flight, so a run
// nobody is waiting for anymore does not keep grinding the disk.
type flight struct {
	done    chan struct{}
	val     any
	err     error
	gen     uint64 // the mutation generation the run started under
	waiters atomic.Int32
	cancel  context.CancelFunc
}

// leave drops one waiter; the last one out cancels the run.
func (f *flight) leave() {
	if f.waiters.Add(-1) == 0 {
		f.cancel()
	}
}

// Do satisfies one memoizable request: result cache first, then join an
// identical in-flight run, else become the leader — acquire an admission
// slot (waiting in its bounded queue under runCtx) and execute run. The
// leader's run context descends from baseCtx (the server's lifetime, so
// shutdown cancels it) and is abandoned-waiter-cancelled; each waiter's own
// ctx bounds only its wait. Successful results are memoized under key until
// the entry is replaced, evicted, or (live entries) invalidated by a
// mutation batch.
func (e *Entry) Do(ctx, baseCtx context.Context, key string, adm *Admission, met *Metrics,
	run func(context.Context) (any, error)) (val any, origin Origin, err error) {
	for {
		e.mu.Lock()
		if val, ok := e.cache[key]; ok {
			e.mu.Unlock()
			met.CacheHits.Add(1)
			return val, OriginCache, nil
		}
		if f, ok := e.flights[key]; ok {
			if f.waiters.Add(1) == 1 {
				// Every previous waiter already abandoned this flight, so
				// its run is being cancelled — don't ride a dying run.
				// Wait for it to clear the table and retry fresh.
				f.leave()
				e.mu.Unlock()
				select {
				case <-f.done:
					continue
				case <-ctx.Done():
					return nil, OriginShared, ctx.Err()
				}
			}
			e.mu.Unlock()
			select {
			case <-f.done:
				if f.err != nil {
					return nil, OriginShared, translateRunErr(f.err, ctx, baseCtx)
				}
				met.RunsShared.Add(1)
				return f.val, OriginShared, nil
			case <-ctx.Done():
				f.leave()
				return nil, OriginShared, ctx.Err()
			}
		}
		met.CacheMisses.Add(1)
		// The flight remembers the mutation generation it started under; a
		// mutation landing mid-run bumps it, and the stale result is then
		// handed to this flight's waiters but never memoized.
		runCtx, cancel := context.WithCancel(baseCtx)
		f := &flight{done: make(chan struct{}), gen: e.mutGen, cancel: cancel}
		f.waiters.Store(1)
		e.flights[key] = f
		e.mu.Unlock()

		// The leader executes synchronously, so its own disconnect is
		// propagated by the waiter accounting rather than a select: when
		// ctx fires and no joiner remains, the run is cancelled.
		stopWatch := context.AfterFunc(ctx, f.leave)

		release, err := acquireTimed(runCtx, adm, met)
		if cerr := ctx.Err(); cerr != nil && err == nil {
			// The leader's own context is already dead (an expired
			// ?timeout=, or a client that disconnected while queued). The
			// AfterFunc above cancels the run too, but on a saturated
			// single-P runtime that goroutine may not be scheduled before a
			// short run finishes — don't start work nobody is waiting for.
			release()
			release, err = nil, cerr
		}
		if err == nil {
			met.RunsStarted.Add(1)
			f.val, f.err = run(runCtx)
			release()
			if f.err == nil {
				met.RunsCompleted.Add(1)
			} else {
				met.RunsFailed.Add(1)
			}
		} else {
			f.err = err
		}

		e.mu.Lock()
		delete(e.flights, key)
		if f.err == nil && e.mutGen == f.gen {
			if len(e.cache) >= maxCachedResults {
				oldest := e.order[0]
				e.order = e.order[1:]
				delete(e.cache, oldest)
			}
			e.cache[key] = f.val
			e.order = append(e.order, key)
		}
		e.mu.Unlock()
		close(f.done)
		stopWatch()
		// The flight is complete; release the run context's resources even
		// if no waiter ever abandoned it.
		cancel()

		if f.err == nil {
			return f.val, OriginRun, nil
		}
		return nil, OriginRun, translateRunErr(f.err, ctx, baseCtx)
	}
}

// translateRunErr maps a run cancelled by waiter abandonment or shutdown —
// which reports the bare context.Canceled — onto what this caller can act
// on: its own context error (the deadline that actually expired), or the
// server drain. Leader and joiner alike go through here, so a drained
// shared run is a 503 for everyone, not a client-cancel.
func translateRunErr(err error, ctx, baseCtx context.Context) error {
	if errors.Is(err, context.Canceled) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if baseCtx.Err() != nil {
			return ErrDraining
		}
	}
	return err
}
