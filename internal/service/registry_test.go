package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"pdtl"
)

// genStore generates a small RMAT store and returns its base path.
func genStore(t *testing.T, scale uint, seed int64) string {
	t.Helper()
	return genStoreEF(t, scale, 8, seed)
}

// genStoreEF is genStore with an explicit edge factor. The blocking-stream
// tests need stores whose NDJSON listing far exceeds the iterator's
// circulating batches plus HTTP buffering, so a paused client reliably
// wedges the run.
func genStoreEF(t *testing.T, scale uint, edgeFactor int, seed int64) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), fmt.Sprintf("rmat%d-%d", scale, seed))
	if _, err := pdtl.GenerateRMAT(base, scale, edgeFactor, seed); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestRegistryRegisterGetEvict(t *testing.T) {
	base := genStore(t, 7, 1)
	r := NewRegistry(4)
	defer r.Close()
	e, err := r.Register("g", base)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "g" || e.Base() != base {
		t.Fatalf("entry = %s/%s", e.Name(), e.Base())
	}
	got, err := r.Get("g")
	if err != nil || got != e {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("unknown Get err = %v", err)
	}
	if !r.Evict("g") {
		t.Fatal("Evict returned false")
	}
	if _, err := r.Get("g"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("post-evict Get err = %v", err)
	}
	// The evicted handle is closed: new runs fail.
	if _, err := e.Graph().Count(context.Background(), pdtl.Options{Workers: 1}); !errors.Is(err, pdtl.ErrClosed) {
		t.Fatalf("evicted handle Count err = %v, want ErrClosed", err)
	}
}

func TestRegistryLRUBound(t *testing.T) {
	r := NewRegistry(2)
	defer r.Close()
	bases := []string{genStore(t, 6, 1), genStore(t, 6, 2), genStore(t, 6, 3)}
	if _, err := r.Register("a", bases[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("b", bases[1]); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" is the LRU victim.
	if _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("c", bases[2]); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, err := r.Get("b"); !errors.Is(err, ErrUnknownGraph) {
		t.Fatalf("LRU victim still present: %v", err)
	}
	for _, name := range []string{"a", "c"} {
		if _, err := r.Get(name); err != nil {
			t.Fatalf("survivor %q gone: %v", name, err)
		}
	}
}

func TestRegistryReRegisterInvalidates(t *testing.T) {
	base := genStore(t, 7, 4)
	r := NewRegistry(4)
	defer r.Close()
	e1, err := r.Register("g", base)
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	adm := NewAdmission(1, 4)
	ctx := context.Background()
	if _, _, _, err := e1.Do(ctx, ctx, "k", adm, met, func(context.Context) (any, error) {
		return 42, nil
	}); err != nil {
		t.Fatal(err)
	}
	if e1.CachedResults() != 1 {
		t.Fatalf("cached = %d, want 1", e1.CachedResults())
	}
	e2, err := r.Register("g", base)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Gen() <= e1.Gen() {
		t.Fatalf("gen not bumped: %d -> %d", e1.Gen(), e2.Gen())
	}
	if e2.CachedResults() != 0 {
		t.Fatal("re-registration must start with an empty result cache")
	}
	// The replaced handle is closed.
	if _, err := e1.Graph().Count(ctx, pdtl.Options{Workers: 1}); !errors.Is(err, pdtl.ErrClosed) {
		t.Fatalf("replaced handle err = %v, want ErrClosed", err)
	}
}

// TestDoSingleFlight drives Entry.Do with a controllable fake run: N
// concurrent identical requests must execute the run exactly once, with one
// OriginRun leader and N-1 OriginShared joiners, and a later request is an
// OriginCache hit.
func TestDoSingleFlight(t *testing.T) {
	base := genStore(t, 6, 5)
	r := NewRegistry(4)
	defer r.Close()
	e, err := r.Register("g", base)
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	adm := NewAdmission(2, 16)

	started := make(chan struct{})
	proceed := make(chan struct{})
	var runCount int
	run := func(context.Context) (any, error) {
		runCount++ // single-flight means no concurrent calls, no mutex needed
		close(started)
		<-proceed
		return "result", nil
	}

	const N = 6
	type out struct {
		val    any
		origin Origin
		err    error
	}
	outs := make([]out, N)
	var wg sync.WaitGroup
	ctx := context.Background()
	wg.Add(1)
	go func() {
		defer wg.Done()
		outs[0].val, outs[0].origin, _, outs[0].err = e.Do(ctx, ctx, "k", adm, met, run)
	}()
	<-started // the leader is inside run; every later Do must join its flight
	for i := 1; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].val, outs[i].origin, _, outs[i].err = e.Do(ctx, ctx, "k", adm, met, run)
		}(i)
	}
	waitFor(t, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.flights["k"] != nil && e.flights["k"].waiters.Load() == N
	})
	close(proceed)
	wg.Wait()

	if runCount != 1 {
		t.Fatalf("run executed %d times, want 1", runCount)
	}
	var runs, shared int
	for i, o := range outs {
		if o.err != nil || o.val != "result" {
			t.Fatalf("out[%d] = %v, %v", i, o.val, o.err)
		}
		switch o.origin {
		case OriginRun:
			runs++
		case OriginShared:
			shared++
		}
	}
	if runs != 1 || shared != N-1 {
		t.Fatalf("origins: %d run + %d shared, want 1 + %d", runs, shared, N-1)
	}
	if met.RunsStarted.Load() != 1 || met.RunsShared.Load() != N-1 {
		t.Fatalf("metrics: started %d shared %d", met.RunsStarted.Load(), met.RunsShared.Load())
	}

	// The memoized result serves without touching run again.
	val, origin, _, err := e.Do(ctx, ctx, "k", adm, met, run)
	if err != nil || val != "result" || origin != OriginCache {
		t.Fatalf("cached Do = %v, %v, %v", val, origin, err)
	}
	if runCount != 1 || met.CacheHits.Load() != 1 {
		t.Fatalf("cache hit re-ran: count %d hits %d", runCount, met.CacheHits.Load())
	}
}

// TestDoAbandonedRunCancelled: when every waiter gives up, the run's
// context is cancelled and each waiter gets its own context error; the
// failed run is not cached.
func TestDoAbandonedRunCancelled(t *testing.T) {
	base := genStore(t, 6, 6)
	r := NewRegistry(4)
	defer r.Close()
	e, err := r.Register("g", base)
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	adm := NewAdmission(1, 4)

	started := make(chan struct{})
	run := func(runCtx context.Context) (any, error) {
		close(started)
		<-runCtx.Done() // a well-behaved engine run returns its ctx error
		return nil, runCtx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := e.Do(ctx, context.Background(), "k", adm, met, run)
		errc <- err
	}()
	<-started
	cancel() // the only waiter leaves; the run must be told to stop
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned Do err = %v, want context.Canceled", err)
	}
	if e.CachedResults() != 0 {
		t.Fatal("failed run must not be cached")
	}
	// The slot came back and the flight table is clean: a fresh request
	// runs again.
	val, origin, _, err := e.Do(context.Background(), context.Background(), "k", adm, met,
		func(context.Context) (any, error) { return 7, nil })
	if err != nil || origin != OriginRun || val != 7 {
		t.Fatalf("fresh Do after abandonment = %v, %v, %v", val, origin, err)
	}
}

// TestDoShutdownCancelsRun: cancelling the base context (server drain)
// aborts the in-flight run and surfaces ErrDraining.
func TestDoShutdownCancelsRun(t *testing.T) {
	base := genStore(t, 6, 7)
	r := NewRegistry(4)
	defer r.Close()
	e, err := r.Register("g", base)
	if err != nil {
		t.Fatal(err)
	}
	met := &Metrics{}
	adm := NewAdmission(1, 4)
	baseCtx, baseCancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, _, err := e.Do(context.Background(), baseCtx, "k", adm, met,
			func(runCtx context.Context) (any, error) {
				close(started)
				<-runCtx.Done()
				return nil, runCtx.Err()
			})
		errc <- err
	}()
	<-started
	baseCancel()
	if err := <-errc; !errors.Is(err, ErrDraining) {
		t.Fatalf("drained Do err = %v, want ErrDraining", err)
	}
}
