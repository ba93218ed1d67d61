package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBusy is returned by Admission.Acquire when every run slot is taken and
// the wait queue is full — the request is shed immediately (HTTP 503) rather
// than queued unboundedly. PDTL runs are I/O-heavy; piling more of them onto
// a saturated disk only slows every run down, so the controller prefers fast
// rejection over unbounded latency.
var ErrBusy = errors.New("service: all run slots busy and the wait queue is full")

// ErrDraining is returned by Acquire once the admission controller has been
// closed: the server is shutting down and queued requests drain with 503s
// instead of starting new engine runs.
var ErrDraining = errors.New("service: server is draining")

// Admission bounds the number of concurrently executing engine runs and the
// number of requests allowed to wait for a slot. A request past both bounds
// is rejected with ErrBusy; a waiting request honors its context deadline
// (mapped by the caller onto the engine's cancellation plumbing) and the
// controller's shutdown.
type Admission struct {
	slots   chan struct{} // tokens; len(slots) = currently free
	maxWait int

	mu      sync.Mutex
	waiting int

	closed    chan struct{}
	closeOnce sync.Once

	// Cumulative counters for /metrics.
	admitted atomic.Uint64
	rejected atomic.Uint64
	queued   atomic.Uint64
}

// NewAdmission creates a controller with `slots` concurrent run slots and a
// wait queue of `queue` requests. Non-positive slots mean 1; a negative
// queue means 0 (no waiting: a request either runs now or is shed).
func NewAdmission(slots, queue int) *Admission {
	if slots <= 0 {
		slots = 1
	}
	if queue < 0 {
		queue = 0
	}
	a := &Admission{
		slots:   make(chan struct{}, slots),
		maxWait: queue,
		closed:  make(chan struct{}),
	}
	for i := 0; i < slots; i++ {
		a.slots <- struct{}{}
	}
	return a
}

// Acquire takes a run slot, waiting in the bounded queue if none is free.
// It returns a release function (idempotent, must be called when the run
// finishes) or: ErrBusy when the queue is full, ErrDraining after Close,
// or ctx.Err() when the caller's deadline fires while queued.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	select {
	case <-a.closed:
		return nil, ErrDraining
	default:
	}
	// Fast path: a free slot means no queueing at all.
	select {
	case <-a.slots:
		a.admitted.Add(1)
		return a.releaser(), nil
	default:
	}
	a.mu.Lock()
	if a.waiting >= a.maxWait {
		a.mu.Unlock()
		a.rejected.Add(1)
		return nil, ErrBusy
	}
	a.waiting++
	a.mu.Unlock()
	a.queued.Add(1)
	defer func() {
		a.mu.Lock()
		a.waiting--
		a.mu.Unlock()
	}()
	select {
	case <-a.slots:
		a.admitted.Add(1)
		return a.releaser(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-a.closed:
		return nil, ErrDraining
	}
}

// acquireTimed is adm.Acquire with the wait observed into met's queue-wait
// histogram. Memoized runs (Entry.Do) and the work that holds a slot without
// memoizing (streams, mutation batches, compactions) queue through it alike.
func acquireTimed(ctx context.Context, adm *Admission, met *Metrics) (func(), error) {
	start := time.Now()
	release, err := adm.Acquire(ctx)
	if err == nil {
		met.QueueWait.ObserveDuration(time.Since(start))
	}
	return release, err
}

// releaser returns the slot back exactly once, however many times it is
// called.
func (a *Admission) releaser() func() {
	var once sync.Once
	return func() {
		once.Do(func() { a.slots <- struct{}{} })
	}
}

// Close starts the drain: every queued Acquire returns ErrDraining
// immediately and new requests are rejected. In-flight runs keep their
// slots until they release them (the server cancels their contexts
// separately).
func (a *Admission) Close() {
	a.closeOnce.Do(func() { close(a.closed) })
}

// InUse reports how many run slots are currently held.
func (a *Admission) InUse() int { return cap(a.slots) - len(a.slots) }

// Slots reports the configured slot count.
func (a *Admission) Slots() int { return cap(a.slots) }

// QueueDepth reports how many requests are waiting for a slot right now.
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.waiting
}

// Counters reports the cumulative admitted / rejected / queued totals.
func (a *Admission) Counters() (admitted, rejected, queued uint64) {
	return a.admitted.Load(), a.rejected.Load(), a.queued.Load()
}
