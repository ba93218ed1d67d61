package mgt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// countingWriter records what a listing writes to its output.
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

// runListing runs a cooperative listing into l and closes it.
func runListing(d *graph.Disk, l *Listing, cfg DealConfig) (Dealt, error) {
	return runListingCtx(context.Background(), d, l, cfg)
}

func runListingCtx(ctx context.Context, d *graph.Disk, l *Listing, cfg DealConfig) (Dealt, error) {
	cfg.Listing = l
	res, err := RunDealt(ctx, d, []balance.Range{FullRange(d)}, cfg)
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return res, err
}

// settle waits for the goroutine count to fall back to at most want.
func settle(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), want)
		}
	}
}

// within runs f, failing the test if it has not returned after a while: a
// runner left waiting for a head that never comes hangs the run.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: the run hangs", what)
	}
}

// TestListingParkRace forces the interleaving that loses a wake-up: a
// runner ahead of the head finds no spare buffer and, before it waits, the
// head reaches its block — the block's predecessor written, nothing parked
// to drain, the one wake-up already gone. The hook holds the runner there
// until the head has arrived; a listing that waited without looking at the
// head again would wait for ever, and one that then parked the block
// would leave it unwritten. With no spare buffers every runner ahead of the
// head with a triangle to list takes that path.
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
		// A buffer of three triangles fills in the middle of blocks, one of
		// fifty mostly at their ends: flush and End each wait.
		var out bytes.Buffer
		l := newListing(&out, p, []int{36, 600}[it%2], 0)
		var reached atomic.Int64
		l.beforeWait = func(seq int64) {
			for l.head.Load() < seq {
				runtime.Gosched()
			}
			reached.Add(1)
		}
		cfg := DealConfig{Workers: p, MemEdges: m, blockEntries: 40, afterBlock: runtime.Gosched}
		within(t, fmt.Sprintf("iteration %d", it), func() {
			if _, err := runListing(d, l, cfg); err != nil {
				t.Errorf("iteration %d: %v", it, err)
			}
		})
		if !bytes.Equal(out.Bytes(), ref) {
			t.Fatalf("iteration %d: %d bytes listed, the one-runner listing has %d", it, out.Len(), len(ref))
		}
		forced += int(reached.Load())
	}
	t.Logf("%d runners held until the head reached their block", forced)
	if forced == 0 {
		t.Fatal("no runner was held until the head reached its block")
	}
}

// TestListingOneRunnerWritesOnce: a lone runner always holds the head, so
// its listing is written straight to the output — never waiting, never
// parked, each byte written once.
func TestListingOneRunnerWritesOnce(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	var out countingWriter
	l := newListing(&out, 1, 120, 0)
	l.beforeWait = func(seq int64) { t.Errorf("the lone runner waited at block %d", seq) }
	res, err := runListing(d, l, DealConfig{Workers: 1, MemEdges: 500, blockEntries: 60})
	if err != nil {
		t.Fatal(err)
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
// budget — a runner ahead of the head whose block outgrows them waits for
// the head, however long the block's share of the listing is. At 250
// vertices the first cone vertices' blocks (one vertex each, at
// ListBlockEntries) outgrow a buffer, and the head, held in its first
// write, keeps the runner ahead waiting.
func TestListingHubHeapBounded(t *testing.T) {
	g, err := gen.Complete(250)
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
	// The head's first write is held until the runner ahead has filled its
	// buffer and the spares, and waits.
	out := &gatedWriter{open: make(chan struct{})}
	out.buf.Grow(int(12 * gen.CompleteTriangles(250)))
	var waits atomic.Int64
	listing := alloc(func() {
		l := NewListing(out, p, nil)
		l.beforeWait = func(int64) {
			if waits.Add(1) == 1 {
				close(out.open)
			}
		}
		if _, err := runListing(d, l, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got, want := uint64(out.buf.Len()), 12*gen.CompleteTriangles(250); got != want {
		t.Fatalf("listed %d bytes, want %d", got, want)
	}
	if want := uint64(out.buf.Len()); want < 8*(p*ListBufferBytes+ParkBytes) {
		t.Fatalf("the listing, %d bytes, is too short to show a bound", want)
	}
	// The listing's own buffers, and room for the parked blocks' records.
	bound := uint64(p*ListBufferBytes+ParkBytes) + 64<<10
	if extra := listing - min(listing, counting); extra > bound {
		t.Errorf("the listing allocated %d bytes beyond counting, bound %d (P × buffer + park budget)", extra, bound)
	}
	t.Logf("listing allocated %d bytes beyond counting; a runner waited %d times", listing-min(listing, counting), waits.Load())
}

// TestListingWriteFailure: an output that fails part-way ends the run with
// its error — the runners stop taking blocks, and none waits for the head.
func TestListingWriteFailure(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	before := runtime.NumGoroutine()
	for _, n := range []int{0, 1000, 7} {
		l := newListing(&failingWriter{n: n}, 3, 120, 1)
		within(t, fmt.Sprintf("after %d bytes", n), func() {
			_, err := runListing(d, l, DealConfig{Workers: 3, MemEdges: 200, blockEntries: 60, afterBlock: runtime.Gosched})
			if !errors.Is(err, errOutput) {
				t.Errorf("after %d bytes: err = %v, want the output's error", n, err)
			}
		})
	}
	settle(t, before)
}

// gatedWriter holds the first write to it — the head's — until open is
// closed, and then fails it with err (nil: takes it).
type gatedWriter struct {
	open  chan struct{}
	err   error
	first bool
	buf   bytes.Buffer
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	if !w.first {
		w.first = true
		<-w.open
		if w.err != nil {
			return 0, w.err
		}
	}
	return w.buf.Write(p)
}

// condWaiters counts the goroutines asleep in a listing, waiting for a
// buffer or for the head.
func condWaiters() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*Cond).Wait(") && strings.Contains(g, "mgt.(*ListPart).wait(") {
			n++
		}
	}
	return n
}

// TestListingWaiterWakes: a runner waiting for the head — the head held in
// its first write to the output, no spare buffer — wakes when the run is
// cancelled and when the head's write fails, and the run returns at once
// with the run's error: context.Canceled, or the output's. No goroutine is
// left behind.
func TestListingWaiterWakes(t *testing.T) {
	g, err := gen.PowerLaw(2000, 30000, 1.8, 11)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	before := runtime.NumGoroutine()
	for _, cancelled := range []bool{true, false} {
		name := map[bool]string{true: "cancelled", false: "failed write"}[cancelled]
		ctx, cancel := context.WithCancel(context.Background())
		out := &gatedWriter{open: make(chan struct{})}
		if !cancelled {
			out.err = errOutput
		}
		l := newListing(out, 3, 36, 0)
		errc := make(chan error, 1)
		go func() {
			_, err := runListingCtx(ctx, d, l, DealConfig{Workers: 3, MemEdges: 2000, afterBlock: runtime.Gosched})
			errc <- err
		}()
		for deadline := time.Now().Add(20 * time.Second); condWaiters() == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no runner waited for the held head", name)
			}
		}
		if cancelled {
			cancel()
		}
		close(out.open)
		select {
		case err := <-errc:
			want := errOutput
			if cancelled {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Errorf("%s: err = %v, want %v", name, err, want)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: the run hangs with a runner waiting", name)
		}
		cancel()
	}
	settle(t, before)
}

// batchLens is a sink that records the length of every batch it is handed.
type batchLens struct{ lens []int }

func (b *batchLens) Triangles(u, v graph.Vertex, ws []graph.Vertex) { b.lens = append(b.lens, len(ws)) }

// widePair is a dense graph with one pair whose hits outnumber a batch: u
// and v share nw neighbours W, each of which also neighbours the same nw+2
// leaves, so W outranks u and v and the cone pair (u, v) closes nw
// triangles — the graph's only ones.
func widePair(nw int) (*graph.CSR, error) {
	u, v := graph.Vertex(nw), graph.Vertex(nw+1)
	edges := []graph.Edge{{U: u, V: v}}
	for w := graph.Vertex(0); w < u; w++ {
		edges = append(edges, graph.Edge{U: u, V: w}, graph.Edge{U: v, V: w})
		for l := v + 1; l < v+1+u+2; l++ {
			edges = append(edges, graph.Edge{U: w, V: l})
		}
	}
	return graph.FromEdges(2*nw+4, edges)
}

// TestListingBatchBoundaries: a pair (u, v) with more hits than a batch
// reaches the sink in chunks of batchLen, and a listing whose buffer is not
// a whole number of triangles flushes in the middle of a chunk. On both
// store formats, by bitset and by the mark path, at P = 1 and 2, the
// listing is the defined sequence byte for byte — in the store's ids and,
// renamed by the listing or by Relabel, in the input's.
func TestListingBatchBoundaries(t *testing.T) {
	g, err := widePair(batchLen + 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		perm, err := d.Perm()
		if err != nil {
			t.Fatal(err)
		}
		win := int(d.Meta.AdjEntries)
		ref := definedListing(t, d, FullRange(d), win)
		renamed := slices.Clone(ref)
		for i := 0; i < len(renamed); i += 4 {
			binary.LittleEndian.PutUint32(renamed[i:], perm[binary.LittleEndian.Uint32(renamed[i:])])
		}
		for _, markOnly := range []bool{false, true} {
			name := fmt.Sprintf("%s/markOnly=%v", d.Format(), markOnly)
			var lens batchLens
			cfg := DealConfig{Workers: 1, MemEdges: win, markOnly: markOnly, Sinks: []Sink{&lens}}
			if _, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, cfg); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(lens.lens, []int{batchLen, 1}) {
				t.Fatalf("%s: batches of %v triangles, want a chunk of %d and one of 1", name, lens.lens, batchLen)
			}
			for _, p := range []int{1, 2} {
				for _, ids := range [][]graph.Vertex{nil, perm} {
					want := ref
					if ids != nil {
						want = renamed
					}
					var out bytes.Buffer
					l := newListing(&out, p, 12*50+4, 1)
					l.ids = ids
					cfg := DealConfig{Workers: p, MemEdges: win / p, markOnly: markOnly, afterBlock: runtime.Gosched}
					if _, err := runListing(d, l, cfg); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out.Bytes(), want) {
						t.Fatalf("%s P=%d ids=%v: the listing differs from the defined sequence", name, p, ids != nil)
					}
				}
			}
			// Relabel renames a stream, in chunks of its own buffer.
			var got []byte
			rec := FuncSink(func(u, v, w graph.Vertex) {
				got = binary.LittleEndian.AppendUint32(got, u)
				got = binary.LittleEndian.AppendUint32(got, v)
				got = binary.LittleEndian.AppendUint32(got, w)
			})
			cfg = DealConfig{Workers: 1, MemEdges: win, markOnly: markOnly, Sinks: []Sink{Relabel(rec, perm)}}
			if _, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, cfg); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, renamed) {
				t.Fatalf("%s: the relabeled stream differs from the defined sequence in the input's ids", name)
			}
		}
	}
	// A batch longer than Relabel's buffer is renamed whole, in order.
	ids := make([]graph.Vertex, 3*batchLen)
	for i := range ids {
		ids[i] = graph.Vertex(len(ids) - i)
	}
	var lens batchLens
	var ws []graph.Vertex
	Relabel(FuncSink(func(u, v, w graph.Vertex) {
		if u != ids[0] || v != ids[1] {
			t.Fatalf("renamed (u, v) = (%d, %d), want (%d, %d)", u, v, ids[0], ids[1])
		}
		ws = append(ws, w)
	}), ids).Triangles(0, 1, slices.Repeat([]graph.Vertex{2, 3, 4}, batchLen))
	Relabel(&lens, ids).Triangles(0, 1, make([]graph.Vertex, 2*batchLen+1))
	if want := slices.Repeat([]graph.Vertex{ids[2], ids[3], ids[4]}, batchLen); !slices.Equal(ws, want) {
		t.Fatalf("Relabel renamed %d closing vertices, want %d in order", len(ws), len(want))
	}
	if !slices.Equal(lens.lens, []int{batchLen, batchLen, 1}) {
		t.Fatalf("Relabel handed on batches of %v", lens.lens)
	}
}
