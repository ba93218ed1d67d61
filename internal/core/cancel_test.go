package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/scan"
)

// cancelDisk builds and orients the RMAT store the cancellation tests run
// against (reusing crosscheck_test's orientedDisk helper).
func cancelDisk(t *testing.T) *graph.Disk {
	t.Helper()
	g, err := gen.RMAT(10, 16, 21)
	if err != nil {
		t.Fatal(err)
	}
	return orientedDisk(t, g)
}

// waitGoroutines polls until the goroutine count settles back to at most
// want, failing the test if it does not within the deadline.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, want <= %d", n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunRangesCancelAllSources cancels a multi-window run from inside a
// sink for every scan source — the default's cooperative windows included —
// and checks that RunRanges returns ctx.Err() promptly, with all source and
// runner goroutines torn down.
func TestRunRangesCancelAllSources(t *testing.T) {
	d := cancelDisk(t)
	plan, err := Plan(d, d.Base, 2, balance.Naive)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []scan.SourceKind{scan.SourceAuto, scan.SourceBuffered, scan.SourceShared} {
		t.Run(string(kind), func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var fired atomic.Bool
			// MemEdges small enough that every runner has many windows
			// left when the cancellation fires mid-run.
			opt := Options{Workers: 2, MemEdges: 128, Scan: kind}
			opt.Sinks = make([]mgt.Sink, opt.Runners(len(plan.Ranges)))
			for i := range opt.Sinks {
				opt.Sinks[i] = mgt.FuncSink(func(u, v, w graph.Vertex) {
					if fired.CompareAndSwap(false, true) {
						cancel()
					}
				})
			}
			_, err := RunRanges(ctx, d, plan.Ranges, opt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !fired.Load() {
				t.Fatal("sink never fired; run too small to cancel mid-pass")
			}
			waitGoroutines(t, before)
		})
	}
}

// TestRunRangesPreCancelled checks the fast path: an already-cancelled
// context never starts a runner.
func TestRunRangesPreCancelled(t *testing.T) {
	d := cancelDisk(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunRanges(ctx, d, []balance.Range{mgt.FullRange(d)}, Options{MemEdges: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestProcessCancelReturnsCtxErr checks that the Process entry point
// surfaces the bare ctx.Err() (not a wrapped scan error) on cancellation,
// over the shared source where cancellation can surface mid-pass through
// the broadcaster.
func TestProcessCancelReturnsCtxErr(t *testing.T) {
	g, err := gen.RMAT(10, 16, 22)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "proc-cancel")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	sinks := make([]mgt.Sink, 3)
	for i := range sinks {
		sinks[i] = mgt.FuncSink(func(u, v, w graph.Vertex) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		})
	}
	_, err = Process(ctx, base, Options{Workers: 3, MemEdges: 128, Scan: scan.SourceShared, Sinks: sinks})
	if err != context.Canceled {
		t.Fatalf("err = %v (%T), want the bare context.Canceled", err, err)
	}
}
