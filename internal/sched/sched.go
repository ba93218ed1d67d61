// Package sched is the chunk scheduler of the PDTL cluster: it decides how
// the work of a run reaches the nodes.
//
// The paper binds every one of the N·P processors to one contiguous edge
// range up front (Section IV-B) and names "different techniques of load
// balancing" as future work (Section VI). That static binding makes the
// slowest node — the "struggler" — gate the whole calculation whenever
// the cost model misjudges a range, which it does on skewed degree
// distributions. This package implements the dynamic alternative: the
// master's Dispenser hands units of work to the nodes on demand, and
// whichever node finishes early simply takes the next one — the
// work-stealing discipline that engineering studies of distributed triangle
// counting identify as the decisive factor on skewed inputs. A stealing unit
// is what a node's own runners are dealt: a run of cone blocks against one
// window of P·M entries (about K units per processor; the cluster package
// cuts them), which a node keeps loaded from one unit to the next. Inside a
// node nothing is scheduled here: its runners share that window and are dealt
// the unit's blocks (mgt.RunDealt), which balances a round to a few thousand
// entries with no cost model at all.
//
// The scheduler never changes what is computed: the units partition the
// scan of every window exactly once, every triangle is still reported
// exactly once by the window holding its pivot edge and the block holding
// its cone vertex, and index-ordered outputs keep listings deterministic even
// though the unit→node assignment is not.
package sched

import (
	"context"
	"fmt"
	"sync"

	"pdtl/internal/mgt"
)

// Mode selects the chunk scheduler.
type Mode int

const (
	// Static is the paper's one-shot binding: each runner receives exactly
	// one contiguous range for the whole run (the load-balance ablation
	// baseline).
	Static Mode = iota
	// Stealing cuts the scan of every window into about K units per
	// processor and lets the nodes draw them one by one — an early finisher
	// takes the next unit instead of idling behind the struggler.
	Stealing
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Static:
		return "static"
	case Stealing:
		return "stealing"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode validates a scheduler name from a flag or wire message. The
// empty string means Static — the paper's configuration.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "static":
		return Static, nil
	case "stealing":
		return Stealing, nil
	}
	return 0, fmt.Errorf("sched: unknown scheduler %q (want static or stealing)", s)
}

// DefaultChunksPerWorker is the default K of the stealing scheduler: each
// runner's share of the scan is split into K units, so the worst-case idle
// tail (one node stuck with the final unit while the rest drain) is bounded
// by ~1/K of a runner's work. A unit costs one Count and no window load on a
// node that holds its window already, so 8 keeps the per-unit overhead
// negligible while already flattening the 2–3× stragglers the paper's
// Figure 9 measures.
const DefaultChunksPerWorker = 8

// ChunksFor returns the unit count K·P for a pool of `workers` runners and
// a chunks-per-worker factor (non-positive selects DefaultChunksPerWorker).
func ChunksFor(workers, perWorker int) int {
	if perWorker <= 0 {
		perWorker = DefaultChunksPerWorker
	}
	if workers < 1 {
		workers = 1
	}
	return workers * perWorker
}

// Ledger folds per-chunk outcomes into one runner's accounting, keeping
// the per-worker statistics of the engine's static mode meaningful under
// dynamic assignment: counters sum, wall time sums (the chunks ran
// sequentially on this runner — unlike the cross-runner Stats.Add, whose
// max-wall is the straggler rule), and the range becomes the convex hull of
// the ranges processed.
type Ledger struct {
	// Worker is the runner index in the pool.
	Worker int
	// Chunks is how many chunks this runner executed.
	Chunks int
	// Lo and Hi bound the union of the processed ranges (diagnostic; the
	// chunks need not be contiguous).
	Lo, Hi uint64
	// Stats is the folded per-runner total.
	Stats mgt.Stats
}

// FoldWorker accumulates one batch's per-worker result (hull [lo, hi),
// ranges worked on, stats) — the distributed master's cross-batch
// accumulation; the folding discipline lives here alone. A zero chunk count
// (a runner that took part in nothing) folds nothing.
func (l *Ledger) FoldWorker(lo, hi uint64, chunks int, st mgt.Stats) {
	if chunks == 0 {
		return
	}
	if l.Chunks == 0 || lo < l.Lo {
		l.Lo = lo
	}
	if l.Chunks == 0 || hi > l.Hi {
		l.Hi = hi
	}
	l.Chunks += chunks
	wall := l.Stats.Wall + st.Wall
	l.Stats = l.Stats.Add(st)
	l.Stats.Wall = wall
}

// NoExclude is the exclusion sentinel for Dispenser.Requeue: the requeued
// batch may be claimed by any node.
const NoExclude = -1

// redo is one batch waiting to be claimed outside the fresh list: a failed
// node's in-flight chunks put back for the surviving nodes to absorb, or a
// slot's pre-assigned group. start preserves the batch's global chunk
// indices, so the re-executed listing segment lands in exactly the position
// the dead node's would have — reassignment never perturbs the
// chunk-ordered output. exclude is the slot of the node that failed the
// batch; NextBatch never hands the batch back to it.
type redo[T any] struct {
	start   int
	chunks  []T
	retries int
	exclude int
}

// Dispenser hands out batches of consecutive chunks — the distributed
// master's side of the scheduler. The master keeps the chunk list and each
// node's driver goroutine draws the next batch when the node finishes its
// current one. Batches are consecutive runs of chunk indices, so the
// returned start index orders each node's listing output globally.
//
// The schedule is a policy of the dispenser, not of its callers. Under
// stealing (NewDispenser) every chunk is on the shared fresh list, so a fast
// node automatically absorbs the work a slow node would have stalled on.
// Under the paper's static schedule (NewPreassigned) the fresh list is
// empty: each slot's first claim is the group planned for it, which no
// other slot is ever offered while its owner may still claim it — the
// dispenser never rebalances.
//
// Requeue is the fault-tolerance half, identical under both policies: when
// a node dies mid-batch its driver puts the batch back (with the dead node
// excluded and a bumped retry count) and whichever surviving driver is idle
// claims it through the same NextBatch path. The dispenser knows which
// batches are still out, so an idle driver waits in NextBatch for exactly
// as long as a failure could still hand it work, and no longer.
type Dispenser[T any] struct {
	mu       sync.Mutex
	chunks   []T
	next     int
	own      []redo[T] // own[slot] is the group pre-assigned to slot; chunks nil once claimed or released
	requeued []redo[T]
	// out counts the batches that can still come back: claimed and neither
	// completed nor requeued, plus pre-assigned groups not yet claimed.
	out     int
	stopped bool
	// wake is closed and replaced whenever a waiter in NextBatch must look
	// again: a batch was requeued, the last batch out completed, or Stop.
	wake chan struct{}
}

// NewDispenser creates a stealing dispenser: every chunk is claimable by
// any slot, in list order.
func NewDispenser[T any](chunks []T) *Dispenser[T] {
	return &Dispenser[T]{chunks: chunks, wake: make(chan struct{})}
}

// NewPreassigned creates a static dispenser: groups[slot] — consecutive
// slices of one plan, as balance.Plan.Subdivide returns them — is handed
// whole to that slot and to nobody else, keyed by the global index of its
// first range.
func NewPreassigned[T any](groups [][]T) *Dispenser[T] {
	d := &Dispenser[T]{own: make([]redo[T], len(groups)), wake: make(chan struct{})}
	start := 0
	for slot, g := range groups {
		if len(g) > 0 {
			d.own[slot] = redo[T]{start: start, chunks: g, exclude: NoExclude}
			d.out++
		}
		start += len(g)
	}
	return d
}

// NextBatch claims the next batch for the given node slot: the slot's
// pre-assigned group if it has one, else a requeued batch (served before
// fresh chunks — they are the run's critical path, already paid for once —
// skipping any batch that excludes this slot, and split to at most n
// chunks), else up to n fresh chunks. It returns the global index of the
// first claimed chunk, the batch itself, and how many times the batch has
// been reassigned.
//
// With nothing claimable NextBatch waits while any batch is still out — a
// failure may yet requeue it — and returns an empty batch only when none
// is, when the dispenser is stopped, or when ctx is cancelled. Every
// non-empty claim must be finished with exactly one Done or Requeue.
func (d *Dispenser[T]) NextBatch(ctx context.Context, n, slot int) (start int, batch []T, retries int) {
	if n < 1 {
		n = 1
	}
	for ctx.Err() == nil {
		d.mu.Lock()
		if d.stopped {
			d.mu.Unlock()
			return 0, nil, 0
		}
		if r, ok := d.claimLocked(n, slot); ok {
			d.mu.Unlock()
			return r.start, r.chunks, r.retries
		}
		if d.out == 0 {
			d.mu.Unlock()
			return 0, nil, 0
		}
		wake := d.wake
		d.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		}
	}
	return 0, nil, 0
}

// claimLocked takes the next batch claimable by slot, if any.
func (d *Dispenser[T]) claimLocked(n, slot int) (redo[T], bool) {
	if slot >= 0 && slot < len(d.own) && d.own[slot].chunks != nil {
		r := d.own[slot]
		d.own[slot].chunks = nil
		return r, true // already counted in out
	}
	for i, r := range d.requeued {
		if r.exclude == slot {
			continue
		}
		if len(r.chunks) <= n {
			d.requeued = append(d.requeued[:i], d.requeued[i+1:]...)
		} else {
			// Splitting a requeued batch keeps both halves contiguous, so
			// every listing segment still has a well-defined start index.
			d.requeued[i].start += n
			d.requeued[i].chunks = r.chunks[n:]
			r.chunks = r.chunks[:n]
		}
		d.out++
		return r, true
	}
	if d.next < len(d.chunks) {
		start := d.next
		d.next = min(start+n, len(d.chunks))
		d.out++
		return redo[T]{start: start, chunks: d.chunks[start:d.next]}, true
	}
	return redo[T]{}, false
}

// Done reports that a claimed batch completed. The completion of the last
// batch out releases every driver waiting in NextBatch.
func (d *Dispenser[T]) Done() {
	d.mu.Lock()
	d.out--
	if d.out == 0 {
		d.signalLocked()
	}
	d.mu.Unlock()
}

// Requeue puts a claimed batch that failed back for reassignment. exclude
// names the node slot that failed it (NoExclude to allow any node); retries
// is the batch's new reassignment count, returned verbatim by the NextBatch
// that re-claims it so the claimer can enforce the retry bound.
func (d *Dispenser[T]) Requeue(start int, chunks []T, retries, exclude int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.out--
	if !d.stopped && len(chunks) > 0 {
		d.requeued = append(d.requeued, redo[T]{start: start, chunks: chunks, retries: retries, exclude: exclude})
	}
	d.signalLocked()
}

// Retire reports that a slot will never claim — its node was lost before it
// could take any work. A group pre-assigned to the slot is released to the
// others as a first reassignment; under stealing there is nothing to
// release.
func (d *Dispenser[T]) Retire(slot int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if slot < 0 || slot >= len(d.own) || d.own[slot].chunks == nil {
		return
	}
	r := d.own[slot]
	d.own[slot].chunks = nil
	r.retries, r.exclude = 1, slot
	d.out--
	if !d.stopped {
		d.requeued = append(d.requeued, r)
	}
	d.signalLocked()
}

func (d *Dispenser[T]) signalLocked() {
	close(d.wake)
	d.wake = make(chan struct{})
}

// Stop drains the dispenser: every later NextBatch returns an empty batch,
// waiters are released, and pending work is dropped. The fatal-error path —
// when a run is lost, the healthy nodes must not spend hours computing a
// result the master will discard; they finish their in-flight batch and
// find the dispenser empty.
func (d *Dispenser[T]) Stop() {
	d.mu.Lock()
	d.next = len(d.chunks)
	d.requeued = nil
	for slot := range d.own {
		d.own[slot].chunks = nil
	}
	d.stopped = true
	d.signalLocked()
	d.mu.Unlock()
}

// Remaining reports how many chunks are still unclaimed: fresh, requeued,
// and pre-assigned. Once every driver has returned it must be zero — the
// master checks exactly that before it folds.
func (d *Dispenser[T]) Remaining() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.chunks) - d.next
	for _, r := range d.requeued {
		n += len(r.chunks)
	}
	for _, r := range d.own {
		n += len(r.chunks)
	}
	return n
}
