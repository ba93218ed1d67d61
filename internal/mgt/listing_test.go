package mgt

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// countingWriter records what a listing writes to its output; it has no
// ReadFrom, so spilled extents reach it through Write too.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// failingWriter takes n bytes and fails every write after them.
type failingWriter struct{ n int }

var errOutput = errors.New("output full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errOutput
	}
	w.n -= len(p)
	return len(p), nil
}

// countSpills makes l count the spill files it creates.
func countSpills(l *Listing) *atomic.Int64 {
	var n atomic.Int64
	create := l.create
	l.create = func(dir string) (*os.File, error) {
		n.Add(1)
		return create(dir)
	}
	return &n
}

// runListing runs a cooperative listing into l and closes it.
func runListing(d *graph.Disk, l *Listing, cfg DealConfig) (Dealt, error) {
	cfg.Listing = l
	res, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, cfg)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// TestListingParkRace forces the interleaving that loses blocks when a
// runner parks a block without looking at the head again: the runner spills
// the tail of a block ahead of the head and, before it parks the block, the
// head reaches it — the block's predecessor written, nothing parked to drain.
// The hook holds the runner there until the head has arrived; a listing that
// parked the block anyway would never write it. With no spare buffers and a
// buffer of a few triangles every finished block ahead of the head takes
// that path.
func TestListingParkRace(t *testing.T) {
	g, err := gen.PowerLaw(300, 2500, 1.8, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	const p, m = 3, 400
	ref := definedListing(t, d, FullRange(d), p*m)
	iterations := 200
	if testing.Short() {
		iterations = 20
	}
	var forced int
	for it := range iterations {
		var out bytes.Buffer
		l := newListing(&out, t.TempDir(), p, 36, 0)
		// A head that does not come in time is stuck behind a lost block:
		// from then on no runner waits, and the listing comes up short.
		var reached atomic.Int64
		var stuck atomic.Bool
		l.beforePark = func(seq int64) {
			for deadline := time.Now().Add(time.Second); l.head.Load() < seq && !stuck.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					stuck.Store(true)
				}
			}
			reached.Add(1)
		}
		cfg := DealConfig{Workers: p, MemEdges: m, blockEntries: 40, afterBlock: runtime.Gosched}
		_, err := runListing(d, l, cfg)
		if stuck.Load() {
			t.Fatalf("iteration %d: a block held before parking was never written (%v)", it, err)
		}
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		if !bytes.Equal(out.Bytes(), ref) {
			t.Fatalf("iteration %d: %d bytes listed, the one-runner listing has %d", it, out.Len(), len(ref))
		}
		forced += int(reached.Load())
	}
	t.Logf("%d blocks held between spilling and parking", forced)
	if forced == 0 {
		t.Fatal("no block was held between spilling and parking")
	}
}

// TestListingOneRunnerWritesOnce: a lone runner always holds the head, so
// its listing is written straight to the output — never spilled, never
// parked, each byte written once.
func TestListingOneRunnerWritesOnce(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	var out countingWriter
	l := newListing(&out, t.TempDir(), 1, 120, 0)
	spills := countSpills(l)
	res, err := runListing(d, l, DealConfig{Workers: 1, MemEdges: 500, blockEntries: 60})
	if err != nil {
		t.Fatal(err)
	}
	if n := spills.Load(); n != 0 {
		t.Errorf("one runner created %d spill files", n)
	}
	tris := res.Runners[0].Triangles
	if got := uint64(out.buf.Len()); got != 12*tris {
		t.Errorf("%d bytes written for %d triangles", got, tris)
	}
	if !bytes.Equal(out.buf.Bytes(), definedListing(t, d, FullRange(d), 500)) {
		t.Error("the listing differs from the defined sequence")
	}
	// A write per full buffer and one per block end, at most.
	if max := int(12*tris/120) + int(res.Runners[0].Passes)*len(d.Degrees); out.writes > max {
		t.Errorf("%d writes, at most %d expected", out.writes, max)
	}
}

// TestListingHubHeapBounded: on a clique, whose first blocks hold nearly all
// of its triangles, the listing's heap is its runners' buffers and the park
// budget — the rest of a block ahead of the head spills, however long the
// block's share of the listing is.
func TestListingHubHeapBounded(t *testing.T) {
	g, err := gen.Complete(200)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	const p = 2
	cfg := DealConfig{Workers: p, MemEdges: int(d.Meta.AdjEntries), blockEntries: 1000, afterBlock: runtime.Gosched}
	alloc := func(run func()) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	counting := alloc(func() {
		cfg := cfg
		cfg.Sinks = []Sink{&CountSink{}, &CountSink{}}
		if _, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	var out countingWriter
	out.buf.Grow(int(12 * gen.CompleteTriangles(200)))
	dir := t.TempDir()
	var spills *atomic.Int64
	listing := alloc(func() {
		l := NewListing(&out, dir, p, nil)
		spills = countSpills(l)
		if _, err := runListing(d, l, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := uint64(out.buf.Len()), 12*gen.CompleteTriangles(200); got != want {
		t.Fatalf("listed %d bytes, want %d", got, want)
	}
	if want := uint64(out.buf.Len()); want < 8*(p*ListBufferBytes+ParkBytes) {
		t.Fatalf("the listing, %d bytes, is too short to show a bound", want)
	}
	// The listing's own buffers, the copy buffer of an output without
	// ReadFrom, and room for the parked blocks' records and the spill files.
	bound := uint64(p*ListBufferBytes+ParkBytes) + 32<<10 + 64<<10
	if extra := listing - min(listing, counting); extra > bound {
		t.Errorf("the listing allocated %d bytes beyond counting, bound %d (P × buffer + park budget)", extra, bound)
	}
	t.Logf("listing allocated %d bytes beyond counting; %d spill files", listing-min(listing, counting), spills.Load())
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}

// TestListingWriteFailure: an output that fails part-way ends the run with
// its error — the runners stop taking blocks, none waits for the head — and
// Close still removes every spill file.
func TestListingWriteFailure(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	before := runtime.NumGoroutine()
	for _, n := range []int{0, 1000, 7} {
		dir := t.TempDir()
		l := newListing(&failingWriter{n: n}, dir, 3, 120, 1)
		_, err := runListing(d, l, DealConfig{Workers: 3, MemEdges: 200, blockEntries: 60, afterBlock: runtime.Gosched})
		if !errors.Is(err, errOutput) {
			t.Fatalf("after %d bytes: err = %v, want the output's error", n, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
			t.Errorf("after %d bytes: spill files left behind: %v", n, left)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), before)
		}
	}
}
