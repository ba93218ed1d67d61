// Package live layers mutability on top of PDTL's immutable sorted
// adjacency stores: an LSM-style delta overlay. A Graph wraps a base
// snapshot (an oriented on-disk store with its adjacency pinned in RAM)
// plus up to two in-memory delta layers — an active layer absorbing edge
// insertions and deletions, and a frozen layer being compacted. Queries
// run the unmodified PDTL engine (cooperative windows, cone routines)
// against a synthetic store whose adjacency bytes are served from memory,
// every read resolved as base ∪ inserts \ deletes; a background compactor
// rewrites base ⊕ frozen into a fresh on-disk store via the external-sort
// ingest pipeline and atomically swaps it in without blocking in-flight
// queries.
package live

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
)

// Config parameterizes a live graph.
type Config struct {
	// Dir is the working directory for compacted snapshots and temp files.
	// Empty means the directory of the base store.
	Dir string
	// Name labels the graph (snapshot file names, store metadata).
	Name string
	// CompactEdges triggers a background compaction when the active delta
	// reaches this many undirected edges (inserts + deletes). Non-positive
	// disables the size trigger (compaction still runs on CompactNow).
	CompactEdges int
	// CompactAge triggers a compaction when the oldest active-delta
	// mutation is older than this. Zero disables the age trigger. Age is
	// checked at mutation time, not on a timer.
	CompactAge time.Duration
	// StoreFormat is the on-disk format of compacted snapshots (empty
	// means graph.FormatPlain).
	StoreFormat graph.Format
	// MemEdges bounds the external sort memory of compaction builds;
	// non-positive selects core.DefaultMemEdges.
	MemEdges int
	// Workers is the parallelism of compaction orientation; non-positive
	// selects 1.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MemEdges <= 0 {
		c.MemEdges = core.DefaultMemEdges
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.StoreFormat == "" {
		c.StoreFormat = graph.FormatPlain
	}
	return c
}

// Stats is a point-in-time snapshot of a live graph's state.
type Stats struct {
	// Gen is the compaction generation of the current base snapshot
	// (0 = the store Open was given).
	Gen uint64
	// NumVertices and NumEdges describe the merged live graph.
	NumVertices int
	NumEdges    uint64
	// ActiveEdges and FrozenEdges are the delta layer sizes in undirected
	// edges (inserts + deletes); DeltaEdges is their sum.
	ActiveEdges int
	FrozenEdges int
	DeltaEdges  int
	// Batches and EdgesApplied count accepted mutation batches and the
	// updates they carried.
	Batches      uint64
	EdgesApplied uint64
	// Compactions counts completed compactions; Compacting reports one in
	// flight.
	Compactions uint64
	Compacting  bool
}

// Graph is a mutable triangle-countable graph: an immutable base snapshot
// plus delta layers. All methods are safe for concurrent use; queries
// never block behind mutations or compaction (they capture an immutable
// view and run against it), and mutations never block behind queries.
type Graph struct {
	cfg Config

	mu sync.Mutex
	// cur is the published view; replaced wholesale by mutations and
	// compaction, never mutated in place.
	cur *view
	// activeSince is when the oldest mutation of the current active layer
	// arrived (zero when the layer is empty) — the age-trigger clock.
	activeSince time.Time
	compacting  bool
	compactDone *sync.Cond // broadcast when a compaction finishes
	closed      bool

	edgesApplied uint64
	compactions  uint64
	// lastCompactErr is the most recent background-compaction failure
	// (surfaced through Stats-adjacent APIs and the next CompactNow).
	lastCompactErr error

	bg sync.WaitGroup
}

// Open wraps the oriented store at base into a live graph. The store is
// not modified; compacted snapshots go to cfg.Dir under cfg.Name.
func Open(base string, cfg Config) (*Graph, error) {
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	return FromDisk(d, base, cfg)
}

// FromDisk is Open for an already-opened oriented store.
func FromDisk(d *graph.Disk, base string, cfg Config) (*Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.Name == "" {
		cfg.Name = d.Meta.Name
	}
	snap, err := newBaseSnap(d, base, 0, false, nil)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		cfg: cfg,
		cur: &view{base: snap, active: emptyDelta},
	}
	g.compactDone = sync.NewCond(&g.mu)
	return g, nil
}

// currentView returns the published immutable view.
func (g *Graph) currentView() *view {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cur
}

// ApplyBatch applies a sequence of edge updates atomically: either every
// update is applied (in order — a batch may insert an edge and delete it
// again) or none is, with the first invalid update identified in the
// error. Inserting an existing edge, deleting a missing one, and
// self-loops are invalid. Inserts may reference vertices beyond the
// current graph; they come into existence with the edge.
func (g *Graph) ApplyBatch(updates []Update) error {
	if len(updates) == 0 {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("live: graph is closed")
	}
	cur := g.cur
	b := newBuilder(cur.active)
	for i, up := range updates {
		if up.U == up.V {
			return fmt.Errorf("live: batch[%d]: self-loop %v", i, up)
		}
		// Presence below the active layer is fixed for the whole batch;
		// the builder carries the batch's own effect on top of it.
		below := cur.base.hasEdge(up.U, up.V)
		if cur.frozen != nil {
			below = cur.frozen.presentAfter(below, up.U, up.V)
		}
		present := b.d.presentAfter(below, up.U, up.V)
		if up.Del {
			if !present {
				return fmt.Errorf("live: batch[%d]: delete of missing edge %v", i, up)
			}
			b.remove(up.U, up.V)
		} else {
			if present {
				return fmt.Errorf("live: batch[%d]: insert of existing edge %v", i, up)
			}
			b.insert(up.U, up.V)
		}
	}
	wasEmpty := cur.active.edges() == 0
	g.cur = &view{base: cur.base, frozen: cur.frozen, active: b.build(), batches: cur.batches + 1}
	if wasEmpty && g.cur.active.edges() > 0 {
		g.activeSince = time.Now()
	}
	g.edgesApplied += uint64(len(updates))
	g.maybeCompactLocked()
	return nil
}

// maybeCompactLocked starts a background compaction if a trigger fires.
// Caller holds g.mu.
func (g *Graph) maybeCompactLocked() {
	if g.compacting || g.cur.active.edges() == 0 {
		return
	}
	size := g.cfg.CompactEdges > 0 && g.cur.active.edges() >= g.cfg.CompactEdges
	age := g.cfg.CompactAge > 0 && !g.activeSince.IsZero() &&
		time.Since(g.activeSince) >= g.cfg.CompactAge
	if !size && !age {
		return
	}
	g.startCompactionLocked()
}

// startCompactionLocked freezes the active layer and launches the
// background compactor. Caller holds g.mu; g.compacting must be false and
// the active layer non-empty.
func (g *Graph) startCompactionLocked() {
	frozen := compose(g.cur.frozen, g.cur.active)
	g.cur = &view{base: g.cur.base, frozen: frozen, active: emptyDelta, batches: g.cur.batches}
	g.activeSince = time.Time{}
	g.compacting = true
	base := g.cur.base
	g.bg.Add(1)
	go func() {
		defer g.bg.Done()
		g.runCompaction(context.Background(), base, frozen)
	}()
}

// CompactNow synchronously compacts all pending delta into a fresh
// snapshot. If a background compaction is in flight it waits for it, then
// compacts any delta that accumulated meanwhile. A no-op (nil) when the
// delta is empty.
func (g *Graph) CompactNow(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	g.mu.Lock()
	for g.compacting {
		g.compactDone.Wait()
	}
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("live: graph is closed")
	}
	if g.cur.deltaEdges() == 0 {
		err := g.lastCompactErr
		g.lastCompactErr = nil
		g.mu.Unlock()
		return err
	}
	cur := obs.CursorFrom(ctx)
	fsp := cur.Begin(obs.SpanFreeze)
	frozen := compose(g.cur.frozen, g.cur.active)
	g.cur = &view{base: g.cur.base, frozen: frozen, active: emptyDelta, batches: g.cur.batches}
	g.activeSince = time.Time{}
	g.compacting = true
	base := g.cur.base
	g.mu.Unlock()
	cur.SetAttr(fsp, "delta_edges", int64(frozen.edges()))
	cur.End(fsp)

	g.runCompaction(ctx, base, frozen)

	g.mu.Lock()
	err := g.lastCompactErr
	g.lastCompactErr = nil
	g.mu.Unlock()
	return err
}

// Count runs the exact PDTL engine over the current live view and returns
// the run result and the number of mutation batches that view holds. The
// view is captured once; mutations and compactions that land mid-run do
// not affect it. It plans and calculates as any local run does
// (core.Execute, traced under ctx's cursor): cooperative windows reading
// the merged view (merged.ReadAt).
func (g *Graph) Count(ctx context.Context, opt core.Options) (*core.Result, uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	v := g.currentView()
	m, err := v.merged()
	if err != nil {
		return nil, 0, err
	}
	res, err := core.Execute(ctx, m.disk, opt)
	if err != nil {
		return nil, 0, err
	}
	return res, v.batches, nil
}

// HasEdge reports whether the undirected edge (u, v) is live.
func (g *Graph) HasEdge(u, v graph.Vertex) bool {
	return g.currentView().present(u, v)
}

// Stats snapshots the graph's state.
func (g *Graph) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.cur
	eff := compose(cur.frozen, cur.active)
	st := Stats{
		Gen:          cur.base.gen,
		NumVertices:  cur.base.disk.NumVertices(),
		NumEdges:     cur.base.disk.Meta.NumEdges + uint64(eff.insEdges) - uint64(eff.delEdges),
		ActiveEdges:  cur.active.edges(),
		FrozenEdges:  cur.frozenEdges(),
		DeltaEdges:   cur.deltaEdges(),
		Batches:      cur.batches,
		EdgesApplied: g.edgesApplied,
		Compactions:  g.compactions,
		Compacting:   g.compacting,
	}
	if len(eff.lists) > 0 && int(eff.maxVertex)+1 > st.NumVertices {
		st.NumVertices = int(eff.maxVertex) + 1
	}
	return st
}

// Close waits for any in-flight compaction and marks the graph closed.
// The current snapshot's files are left on disk (they are the data).
func (g *Graph) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	g.bg.Wait()
	return nil
}
