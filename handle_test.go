package pdtl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/orient"
)

func TestHandleCountAndReuse(t *testing.T) {
	base := filepath.Join(t.TempDir(), "k25")
	if _, err := GenerateComplete(base, 25); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Info().NumVertices != 25 {
		t.Fatalf("info = %+v", g.Info())
	}
	ctx := context.Background()
	res1, err := g.Count(ctx, Options{Workers: 3, MemEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Triangles != gen.CompleteTriangles(25) {
		t.Fatalf("triangles = %d", res1.Triangles)
	}
	if res1.OrientTime <= 0 {
		t.Error("first run should report the orientation it performed")
	}
	res2, err := g.Count(ctx, Options{Workers: 3, MemEdges: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Triangles != res1.Triangles {
		t.Errorf("rerun triangles = %d, want %d", res2.Triangles, res1.Triangles)
	}
	if res2.OrientTime != 0 {
		t.Error("second run must reuse the cached orientation (OrientTime 0)")
	}
}

// TestHandleNoRereadAfterFirstRun is the I/O-accounting check of the
// handle cache: after the first Count, every store file except the oriented
// adjacency data is deleted. A second Count (and a different-worker-count
// third) can only succeed if the handle re-reads nothing — no orientation,
// no metadata, no degree file, no in-degree file.
func TestHandleNoRereadAfterFirstRun(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 9, 8, 7); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()
	res1, err := g.Count(ctx, Options{Workers: 2, MemEdges: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	oriented := res1.OrientedBase
	for _, p := range []string{
		graph.MetaPath(base), graph.DegPath(base), graph.AdjPath(base),
		graph.MetaPath(oriented), graph.DegPath(oriented), orient.InDegPath(oriented),
	} {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := g.Count(ctx, Options{Workers: 2, MemEdges: 1 << 12})
	if err != nil {
		t.Fatalf("rerun after deleting metadata/degree/in-degree files: %v", err)
	}
	if res2.Triangles != res1.Triangles || res2.OrientTime != 0 {
		t.Errorf("rerun = %d triangles orient %v, want %d and 0", res2.Triangles, res2.OrientTime, res1.Triangles)
	}
	// A different worker count needs a fresh plan — still from cached
	// arrays only.
	res3, err := g.Count(ctx, Options{Workers: 4, MemEdges: 1 << 12})
	if err != nil {
		t.Fatalf("new worker count after deleting files: %v", err)
	}
	if res3.Triangles != res1.Triangles {
		t.Errorf("4-worker rerun = %d, want %d", res3.Triangles, res1.Triangles)
	}
}

// TestHandleCancelMidPassAllSources cancels from inside the loop over the
// triangles and expects the bare ctx.Err(). The paper's layout, which no
// public option selects, is cancelled the same way in internal/core's
// TestRunRangesCancelAllSources.
func TestHandleCancelMidPassAllSources(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 10, 16, 3); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// More than the 2·P+2 batches that circulate can hold: the run cannot
	// finish before the loop hands a batch back, which it does only after
	// cancelling.
	total, err := g.Count(context.Background(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if total.Triangles <= (2*2+2)*triangleBatch {
		t.Fatalf("%d triangles: too few to cancel mid-run", total.Triangles)
	}
	t.Run("auto", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		fired := false
		// MemEdges 128 gives the window dozens of rounds, so the
		// cancellation lands mid-run with most of the store left.
		seq, done := g.Triangles(ctx, Options{Workers: 2, MemEdges: 128})
		for range seq {
			if !fired {
				fired = true
				cancel()
			}
		}
		if _, err := done(); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if !fired {
			t.Fatal("the loop never ran")
		}
	})
}

func TestHandleTrianglesIterator(t *testing.T) {
	g4, err := gen.ErdosRenyi(200, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g4, "er")
	want := baseline.Forward(g4)
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	seq, done := g.Triangles(context.Background(), Options{Workers: 3, MemEdges: 64})
	var n uint64
	for range seq {
		n++
	}
	res, err := done()
	if err != nil {
		t.Fatal(err)
	}
	if n != want || res == nil || res.Triangles != want || len(res.Workers) != 3 {
		t.Errorf("iterated %d triangles, the run's Result %+v; want %d triangles from 3 workers", n, res, want)
	}
}

// TestHandleTrianglesEarlyBreakNoLeak breaks out of the iterator early,
// repeatedly, and checks the goroutine count settles back to its baseline —
// the teardown contract of g.Triangles.
func TestHandleTrianglesEarlyBreakNoLeak(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 10, 16, 5); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Warm the handle (orientation) so the loop below measures only runs.
	if _, err := g.Count(context.Background(), Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		seq, done := g.Triangles(context.Background(), Options{Workers: 4, MemEdges: 256})
		n := 0
		for range seq {
			n++
			if n >= 3 {
				break
			}
		}
		if res, err := done(); err != nil || res != nil {
			t.Fatalf("early break reported %+v, %v; want no Result and no error", res, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tripleOrder sorts a listing whose triples are each u ≺ v ≺ w.
func tripleOrder(a, b [3]uint32) int { return slices.Compare(a[:], b[:]) }

// TestTrianglesMatchList: the iterator yields exactly the listing's
// multiset, in the input's ids, whether every runner's triangles fit in its
// one partial batch or span many full ones.
func TestTrianglesMatchList(t *testing.T) {
	small, err := gen.ErdosRenyi(200, 1500, 11)
	if err != nil {
		t.Fatal(err)
	}
	large, err := gen.RMAT(11, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		g       *graph.CSR
		batches func(n int) bool
	}{
		{"partial", small, func(n int) bool { return n < triangleBatch }},
		{"many", large, func(n int) bool { return n > 8*triangleBatch }},
	} {
		var want [][3]uint32
		baseline.ForwardList(tc.g, func(u, v, w graph.Vertex) { want = append(want, [3]uint32{u, v, w}) })
		if !tc.batches(len(want)) {
			t.Fatalf("%s: %d triangles do not exercise the intended batch path", tc.name, len(want))
		}
		want = sortedSet(want)
		h := openStore(t, tempStore(t, tc.g, tc.name))
		for _, workers := range []int{1, 2, 4} {
			opt := Options{Workers: workers, MemEdges: 4096}
			var out bytes.Buffer
			if _, err := h.List(ctx, &out, opt); err != nil {
				t.Fatal(err)
			}
			listed, err := mgt.ReadTriangles(&out)
			if err != nil {
				t.Fatal(err)
			}
			var iterated [][3]uint32
			seq, done := h.Triangles(ctx, opt)
			for tri := range seq {
				iterated = append(iterated, tri)
			}
			if _, err := done(); err != nil {
				t.Fatalf("%s P=%d: %v", tc.name, workers, err)
			}
			slices.SortFunc(listed, tripleOrder)
			slices.SortFunc(iterated, tripleOrder)
			if !slices.Equal(iterated, listed) {
				t.Errorf("%s P=%d: Triangles gave %d triangles, List %d, not the same multiset", tc.name, workers, len(iterated), len(listed))
			}
			if !slices.Equal(sortedSet(iterated), want) {
				t.Errorf("%s P=%d: Triangles is not the input's %d triangles in its own ids", tc.name, workers, len(want))
			}
		}
	}
}

// TestTrianglesWideBatches: a pair (u, v) that closes more triangles than a
// runner hands its sink in one batch reaches Triangles and TriangleDegrees
// whole. u and v share 257 neighbours W, each of which outranks both —
// W's vertices also share 259 leaves — so one cone pair has 257 hits, and
// the graph's triangles are those 257. Both methods match the baseline, at
// one, two and four workers.
func TestTrianglesWideBatches(t *testing.T) {
	const nw, nl = 257, 259
	u, v := graph.Vertex(nw), graph.Vertex(nw+1)
	edges := []graph.Edge{{U: u, V: v}}
	for w := graph.Vertex(0); w < nw; w++ {
		edges = append(edges, graph.Edge{U: u, V: w}, graph.Edge{U: v, V: w})
		for l := graph.Vertex(nw + 2); l < nw+2+nl; l++ {
			edges = append(edges, graph.Edge{U: w, V: l})
		}
	}
	g, err := graph.FromEdges(nw+2+nl, edges)
	if err != nil {
		t.Fatal(err)
	}
	var want [][3]uint32
	baseline.ForwardList(g, func(u, v, w graph.Vertex) { want = append(want, [3]uint32{u, v, w}) })
	if len(want) != nw {
		t.Fatalf("the graph has %d triangles, want %d", len(want), nw)
	}
	want = sortedSet(want)
	wantDegrees := baseline.LocalCounts(g)
	h := openStore(t, tempStore(t, g, "wide"))
	ctx := context.Background()
	for _, workers := range []int{1, 2, 4} {
		opt := Options{Workers: workers}
		var got [][3]uint32
		seq, done := h.Triangles(ctx, opt)
		for tri := range seq {
			got = append(got, tri)
		}
		if _, err := done(); err != nil {
			t.Fatal(err)
		}
		if got = sortedSet(got); !slices.Equal(got, want) {
			t.Errorf("P=%d: Triangles gave %d triangles, not the baseline's %d", workers, len(got), len(want))
		}
		degrees, _, err := h.TriangleDegrees(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(degrees, wantDegrees) {
			t.Errorf("P=%d: TriangleDegrees differs from the baseline's local counts", workers)
		}
	}
}

// TestTrianglesCallerCancel cancels the caller's ctx mid-iteration and keeps
// consuming: the loop ends, the run reports context.Canceled, and the goroutine
// count settles back to its baseline.
func TestTrianglesCallerCancel(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 11, 16, 5); err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	total, err := g.Count(context.Background(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// More than the 2·P+2 batches that circulate can hold: the run cannot
	// finish before the consumer hands a batch back.
	if total.Triangles <= (2*4+2)*triangleBatch {
		t.Fatalf("%d triangles: too few to cancel mid-run", total.Triangles)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		seq, done := g.Triangles(ctx, Options{Workers: 4, MemEdges: 256})
		var n uint64
		for range seq {
			if n++; n == 10 {
				cancel()
			}
		}
		cancel()
		if _, err := done(); !errors.Is(err, context.Canceled) {
			t.Fatalf("done() = %v after cancelling the caller's ctx, want context.Canceled", err)
		}
		if n >= total.Triangles {
			t.Fatalf("iterated all %d triangles despite the cancel", n)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHandleListWriter(t *testing.T) {
	g6, err := gen.TriGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g6, "tg")
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var buf bytes.Buffer
	res, err := g.List(context.Background(), &buf, Options{Workers: 2, MemEdges: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := gen.TriGridTriangles(5, 5)
	if res.Triangles != want || uint64(buf.Len()) != want*12 {
		t.Errorf("triangles %d bytes %d, want %d and %d", res.Triangles, buf.Len(), want, want*12)
	}
}

// TestListFileIndependentOfWorkers: the listing a handle writes under the
// default source depends on the memory it was given, Workers·MemEdges, and on
// nothing else — not on how many workers share it, not on which of them was
// dealt which block: byte-identical files for 1, 2 and 4 workers at equal
// Workers·MemEdges on both store formats. (That one worker of the paper's
// layout with the whole window writes the very same file is internal/core's
// TestCooperativeWindowsAgainstPaperLayout.)
func TestListFileIndependentOfWorkers(t *testing.T) {
	base := filepath.Join(t.TempDir(), "pl")
	info, err := GeneratePowerLaw(base, 2000, 30000, 1.9, 17)
	if err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	dir := t.TempDir()
	list := func(name string, opt Options) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		res, err := g.ListFile(context.Background(), path, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(b)) != 12*res.Triangles || res.Triangles == 0 {
			t.Fatalf("%s: %d bytes for %d triangles", name, len(b), res.Triangles)
		}
		return b
	}
	for _, format := range []string{"plain", "compressed"} {
		for _, window := range []int{int(info.NumEdges), int(info.NumEdges)/12/4*4 + 4} {
			ref := list("ref", Options{Workers: 1, MemEdges: window, StoreFormat: format})
			for _, workers := range []int{1, 2, 4} {
				for rep := 0; rep < 3; rep++ {
					got := list("out", Options{Workers: workers, MemEdges: window / workers, StoreFormat: format})
					if !bytes.Equal(got, ref) {
						t.Fatalf("%s window=%d: %d workers list %d bytes that differ from the one-worker listing's %d",
							format, window, workers, len(got), len(ref))
					}
				}
			}
		}
	}
}

// TestListConcurrentSamePath runs two ListFile calls on the same output
// path at once. Predictable temp names would let their intermediate files
// clobber each other; with os.CreateTemp names they cannot, and both runs
// produce the complete, exact listing.
func TestListConcurrentSamePath(t *testing.T) {
	g6, err := gen.TriGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g6, "tg")
	// Pre-orient so the two runs do not race on writing the oriented store.
	if _, err := openStore(t, base).Count(context.Background(), Options{Workers: 1, MemEdges: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	oriented := base + ".oriented"
	out := filepath.Join(t.TempDir(), "tris.bin")
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// One handle per run, as two independent callers would hold.
			g, err := Open(oriented)
			if err != nil {
				errs[slot] = err
				return
			}
			defer g.Close()
			_, errs[slot] = g.ListFile(context.Background(), out, Options{Workers: 2, MemEdges: 32})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	tris, err := ReadTriangleFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := gen.TriGridTriangles(8, 8)
	if uint64(len(tris)) != want {
		t.Fatalf("listed %d triangles, want %d", len(tris), want)
	}
	seen := map[[3]uint32]bool{}
	for _, tri := range tris {
		if seen[tri] {
			t.Fatalf("duplicate %v", tri)
		}
		seen[tri] = true
	}
}

// watchedWriter is a slow output that, at every write, fails the test if
// dir holds any file: the workers ahead of the output meanwhile list into
// memory, and wait.
type watchedWriter struct {
	t   *testing.T
	dir string
	n   int
}

func (w *watchedWriter) Write(p []byte) (int, error) {
	if files, _ := filepath.Glob(filepath.Join(w.dir, "*")); len(files) > 0 {
		w.t.Errorf("files during the run: %v", files)
	}
	time.Sleep(100 * time.Microsecond)
	w.n += len(p)
	return len(p), nil
}

// failAfter takes n bytes and fails every write after them.
type failAfter struct{ n int }

var errOutputFull = errors.New("output full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errOutputFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestListStreamsWithoutIntermediates: a listing creates no file, in the
// temp directory or anywhere else, while List runs or after it returns,
// however slow the output. An output that fails part-way makes List return
// its error, with every worker stopped. (A failed write under the paper's
// layout is internal/core's TestPaperLayoutListingWaiterWakes.)
func TestListStreamsWithoutIntermediates(t *testing.T) {
	base := filepath.Join(t.TempDir(), "pl")
	if _, err := GeneratePowerLaw(base, 2000, 30000, 1.9, 17); err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	empty := func(label string) {
		t.Helper()
		if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) > 0 {
			t.Errorf("%s: left behind: %v", label, left)
		}
	}
	before := runtime.NumGoroutine()
	opt := Options{Workers: 4, MemEdges: 2000}
	w := &watchedWriter{t: t, dir: tmp}
	res, err := g.List(context.Background(), w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(w.n) != 12*res.Triangles {
		t.Errorf("%d bytes for %d triangles", w.n, res.Triangles)
	}
	empty("listing")
	for _, n := range []int{0, 12 * 1000} {
		if _, err := g.List(context.Background(), &failAfter{n: n}, opt); !errors.Is(err, errOutputFull) {
			t.Errorf("output full after %d bytes: err = %v", n, err)
		}
		empty("failed run")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), before)
		}
	}
}

// TestListFileLeavesOnlyTheOutput: whether ListFile succeeds, fails or is
// cancelled mid-run, the output's directory afterwards holds the output or
// nothing at all.
func TestListFileLeavesOnlyTheOutput(t *testing.T) {
	base := filepath.Join(t.TempDir(), "pl")
	if _, err := GeneratePowerLaw(base, 2000, 30000, 1.9, 17); err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	check := func(label, dir string, want ...string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: the directory holds %v, want %v", label, got, want)
		}
	}
	opt := Options{Workers: 4, MemEdges: 500}

	// While the run lasts, the directory holds the output's temp file and
	// nothing else: four workers on fewer cores leave the one holding the
	// head behind, and the others wait for it in memory.
	dir := t.TempDir()
	stop, seen := make(chan struct{}), make(chan []string)
	go func() {
		var others []string
		for {
			select {
			case <-stop:
				seen <- others
				return
			default:
			}
			entries, _ := os.ReadDir(dir)
			for _, e := range entries {
				if name := e.Name(); !strings.HasPrefix(name, "tris.bin.tmp-") && name != "tris.bin" {
					others = append(others, name)
				}
			}
			runtime.Gosched()
		}
	}()
	_, err := g.ListFile(context.Background(), filepath.Join(dir, "tris.bin"), opt)
	close(stop)
	if others := <-seen; len(others) > 0 {
		t.Errorf("during the run the directory held %v", others)
	}
	if err != nil {
		t.Fatal(err)
	}
	check("success", dir, "tris.bin")

	dir = t.TempDir()
	bad := opt
	bad.StoreFormat = "bogus"
	if _, err := g.ListFile(context.Background(), filepath.Join(dir, "tris.bin"), bad); err == nil {
		t.Fatal("an unknown store format listed")
	}
	check("failure", dir)

	// Cancelled once the output has begun to grow; a run that finishes
	// first must leave its output alone.
	for i := range 5 {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			defer cancel()
			for ctx.Err() == nil {
				tmps, _ := filepath.Glob(filepath.Join(dir, "tris.bin.tmp-*"))
				for _, p := range tmps {
					if fi, err := os.Stat(p); err == nil && fi.Size() > 0 {
						return
					}
				}
				runtime.Gosched()
			}
		}()
		_, err := g.ListFile(ctx, filepath.Join(dir, "tris.bin"), opt)
		cancel()
		switch {
		case err == nil:
			check("finished before the cancellation", dir, "tris.bin")
		case errors.Is(err, context.Canceled):
			check("cancelled", dir)
		default:
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestListFileKeepsSpecialOutputs: ListFile publishes by rename, which
// would replace whatever sits at its path. A FIFO there is refused before
// the run and stays a FIFO; a symlink stays a symlink, and the file it
// points to is the one replaced — by the whole listing on success, and not
// at all by a cancelled run; a dangling link's target is created, and a
// link loop is refused. (Only temp directories: a regression must never get
// to replace a real device node.)
func TestListFileKeepsSpecialOutputs(t *testing.T) {
	base := filepath.Join(t.TempDir(), "pl")
	if _, err := GeneratePowerLaw(base, 600, 6000, 2.0, 5); err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	ctx, opt := context.Background(), Options{Workers: 2, MemEdges: 500}
	dir := t.TempDir()

	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ListFile(ctx, fifo, opt); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("listing onto a FIFO: err = %v, want a refusal", err)
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Errorf("the FIFO is now %v (%v)", fi.Mode(), err)
	}

	want := filepath.Join(dir, "want.bin")
	if _, err := g.ListFile(ctx, want, opt); err != nil {
		t.Fatal(err)
	}
	target, link := filepath.Join(dir, "target.bin"), filepath.Join(dir, "link.bin")
	old := []byte("the old listing")
	if err := os.WriteFile(target, old, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("target.bin", link); err != nil {
		t.Fatal(err)
	}
	check := func(label string, wantBytes []byte) {
		t.Helper()
		if fi, err := os.Lstat(link); err != nil || fi.Mode().Type() != os.ModeSymlink {
			t.Errorf("%s: the symlink is now %v (%v)", label, fi.Mode(), err)
		}
		if got, err := os.ReadFile(target); err != nil || !bytes.Equal(got, wantBytes) {
			t.Errorf("%s: the target holds %d bytes (%v), want %d", label, len(got), err, len(wantBytes))
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := g.ListFile(cancelled, link, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled listing: err = %v", err)
	}
	check("cancelled", old)
	if _, err := g.ListFile(ctx, link, opt); err != nil {
		t.Fatal(err)
	}
	listing, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	check("listed", listing)

	// A dangling link's target is created, and the link kept.
	dangling := filepath.Join(dir, "dangling.bin")
	if err := os.Symlink("new.bin", dangling); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ListFile(ctx, dangling, opt); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "new.bin")); err != nil || !bytes.Equal(got, listing) {
		t.Errorf("the dangling link's target holds %d bytes (%v), want %d", len(got), err, len(listing))
	}
	if fi, err := os.Lstat(dangling); err != nil || fi.Mode().Type() != os.ModeSymlink {
		t.Errorf("the dangling symlink is now %v (%v)", fi.Mode(), err)
	}
	// A link to itself resolves to nothing: refused, and left as it is.
	loop := filepath.Join(dir, "loop.bin")
	if err := os.Symlink("loop.bin", loop); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ListFile(ctx, loop, opt); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("listing onto a symlink loop: err = %v, want a refusal", err)
	}
	if fi, err := os.Lstat(loop); err != nil || fi.Mode().Type() != os.ModeSymlink {
		t.Errorf("the looping symlink is now %v (%v)", fi.Mode(), err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) > 0 {
		t.Errorf("left behind: %v", left)
	}
}

// TestHandleCompressedStoreRuns: one handle serves both store formats —
// local runs on each produce the same count, the compressed orientation is
// actually compressed on disk, and a distributed run replicates the
// compressed store (.cadj/.cidx travel the wire) and agrees.
func TestHandleCompressedStoreRuns(t *testing.T) {
	base := filepath.Join(t.TempDir(), "pl")
	if _, err := GeneratePowerLaw(base, 800, 8000, 1.9, 7); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ctx := context.Background()

	plain, err := g.Count(ctx, Options{Workers: 2, MemEdges: 512})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := StartLocalWorkers(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	comp, err := g.Count(ctx, Options{Workers: 2, MemEdges: 512, StoreFormat: "compressed"})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Triangles != comp.Triangles {
		t.Fatalf("plain store counted %d, compressed %d", plain.Triangles, comp.Triangles)
	}
	if plain.OrientedBase == comp.OrientedBase {
		t.Fatalf("both formats oriented to %q", plain.OrientedBase)
	}
	meta, err := graph.ReadMeta(comp.OrientedBase)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != graph.FormatCompressed {
		t.Fatalf("compressed run oriented to format %q", meta.Format)
	}

	dres, err := g.CountDistributed(ctx, pool.Addrs(), ClusterOptions{
		Workers: 2, MemEdges: 512, StoreFormat: "compressed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres.Triangles != plain.Triangles {
		t.Fatalf("distributed compressed run counted %d, want %d", dres.Triangles, plain.Triangles)
	}
	if dres.OrientedBase != comp.OrientedBase {
		t.Fatalf("distributed run oriented to %q, want the cached %q", dres.OrientedBase, comp.OrientedBase)
	}
}

func TestHandleDistributedCancel(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 13, 16, 9); err != nil {
		t.Fatal(err)
	}
	pool, err := StartLocalWorkers(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Pre-cancelled context: nothing starts.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.CountDistributed(cancelled, pool.Addrs(), ClusterOptions{Workers: 2, MemEdges: 256}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}

	// A 1 ms deadline expires during orientation/copy/calculation of a
	// scale-13 graph; the protocol must surface the deadline error.
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	if _, err := g.CountDistributed(ctx, pool.Addrs(), ClusterOptions{Workers: 2, MemEdges: 256}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v, want context.DeadlineExceeded", err)
	}

	// The same handle still works with a live context, reusing whatever
	// preprocessing survived the aborted attempts.
	res, err := g.CountDistributed(context.Background(), pool.Addrs(), ClusterOptions{Workers: 2, MemEdges: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	local, err := g.Count(context.Background(), Options{Workers: 2, MemEdges: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != local.Triangles {
		t.Errorf("distributed %d vs local %d", res.Triangles, local.Triangles)
	}
}

func TestServeWorkerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w, err := ServeWorkerContext(ctx, "127.0.0.1:0", "ctxworker", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.Done():
		t.Fatal("worker stopped before cancellation")
	default:
	}
	cancel()
	select {
	case <-w.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop on context cancellation")
	}
	// Close after context-stop is a no-op, not a panic.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedHandle(t *testing.T) {
	base := filepath.Join(t.TempDir(), "k10")
	if _, err := GenerateComplete(base, 10); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Count(context.Background(), Options{Workers: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, _, err := g.TriangleDegrees(context.Background(), Options{Workers: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// BenchmarkTriangles times the iterator end to end on an RMAT-12 store: the
// engine plus the hand-over of every triangle to the consumer's goroutine.
func BenchmarkTriangles(b *testing.B) {
	base := filepath.Join(b.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 12, 16, 5); err != nil {
		b.Fatal(err)
	}
	g := openStore(b, base)
	opt := Options{Workers: 2}
	// Orient once, outside the timed loop.
	res, err := g.Count(context.Background(), opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		seq, done := g.Triangles(context.Background(), opt)
		var n uint64
		for range seq {
			n++
		}
		if _, err := done(); err != nil {
			b.Fatal(err)
		}
		if n != res.Triangles {
			b.Fatalf("iterated %d triangles, want %d", n, res.Triangles)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*res.Triangles), "ns/triangle")
}

// TestTwoHandlesOneBase: one handle counts in a loop while a second handle
// in the same process opens the same unoriented base again and again — each
// open orienting it anew, rewriting <base>.oriented under the first
// handle's runs — and counts once per handle. Orientation publishes every
// file by rename from a temp name beside it, .meta last, so a run keeps
// reading the files it opened, and no count of either handle fails or
// differs.
func TestTwoHandlesOneBase(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 14, 16, 3); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := Options{Workers: 2, MemEdges: 8 << 10}
	g1 := openStore(t, base)
	first, err := g1.Count(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Triangles
	stop, done := make(chan struct{}), make(chan struct{})
	var counts, failed int
	var firstFailure error
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := g1.Count(ctx, opt)
			counts++
			if err == nil && res.Triangles != want {
				err = fmt.Errorf("%d triangles, want %d", res.Triangles, want)
			}
			if err != nil {
				if failed++; firstFailure == nil {
					firstFailure = err
				}
			}
		}
	}()
	handles := 40
	if testing.Short() {
		handles = 10
	}
	for i := range handles {
		g2, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		res, err := g2.Count(ctx, opt)
		g2.Close()
		if err != nil {
			t.Errorf("handle %d: %v", i, err)
		} else if res.Triangles != want {
			t.Errorf("handle %d: %d triangles, want %d", i, res.Triangles, want)
		}
	}
	close(stop)
	<-done
	t.Logf("the first handle counted %d times while the second re-oriented %d times", counts, handles)
	if failed > 0 {
		t.Errorf("%d of the first handle's %d counts failed; the first: %v", failed, counts, firstFailure)
	}
	if left, _ := filepath.Glob(filepath.Join(filepath.Dir(base), "*.tmp-*")); len(left) > 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}
