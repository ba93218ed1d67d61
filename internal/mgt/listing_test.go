package mgt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
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

// tracedListing runs a cooperative listing into l under a trace and returns
// the spill_bytes attr of each runner's chunk span, and each runner's spill
// file size, both taken before l is closed.
func tracedListing(t *testing.T, d *graph.Disk, l *Listing, cfg DealConfig) (res Dealt, attrs, sizes []int64) {
	t.Helper()
	tr := obs.NewTrace(0)
	ctx := obs.ContextWithCursor(context.Background(), obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	cfg.Listing = l
	res, err := RunDealt(ctx, d, []balance.Range{FullRange(d)}, cfg)
	attrs, sizes = make([]int64, cfg.Workers), make([]int64, cfg.Workers)
	for _, sp := range tr.Spans() {
		if sp.Name != obs.SpanChunk {
			continue
		}
		n, ok := spanAttr(sp, "spill_bytes")
		if !ok {
			t.Errorf("runner %d's chunk span has no spill_bytes attr", sp.Worker)
		}
		attrs[sp.Worker] = n
	}
	for i := range l.parts {
		if f := l.parts[i].spill; f != nil {
			fi, serr := f.(*os.File).Stat()
			if serr != nil {
				t.Fatal(serr)
			}
			sizes[i] = fi.Size()
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, attrs, sizes
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
// parked, each byte written once, and its chunk span's spill_bytes is 0.
func TestListingOneRunnerWritesOnce(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	var out countingWriter
	l := newListing(&out, t.TempDir(), 1, 120, 0)
	spills := countSpills(l)
	res, attrs, _ := tracedListing(t, d, l, DealConfig{Workers: 1, MemEdges: 500, blockEntries: 60})
	if n := spills.Load(); n != 0 || attrs[0] != 0 {
		t.Errorf("one runner created %d spill files, its chunk span says it spilled %d bytes", n, attrs[0])
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
// block's share of the listing is. At 250 vertices the first cone vertices'
// blocks (one vertex each, at ListBlockEntries) outgrow a buffer.
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
	var out countingWriter
	out.buf.Grow(int(12 * gen.CompleteTriangles(250)))
	dir := t.TempDir()
	var spills *atomic.Int64
	listing := alloc(func() {
		l := NewListing(&out, dir, p, nil)
		spills = countSpills(l)
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

// slowWriter is an output that takes a while over every write, so that the
// runners ahead of the head finish blocks while the head's are written.
type slowWriter struct{ buf bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	return w.buf.Write(p)
}

// TestListingSpillBytes: each runner's chunk span says how many bytes it
// spilled, and that is its spill file's size. Three runners, one spare
// buffer of a few triangles and a slow output: blocks finished ahead of the
// head park while the spare is free and spill once it is taken. The listing
// is the defined one whatever went where.
func TestListingSpillBytes(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	const p, m = 3, 200
	ref := definedListing(t, d, FullRange(d), p*m)
	var spilled int64
	for it := 0; it < 20 && spilled == 0; it++ {
		var out slowWriter
		l := newListing(&out, t.TempDir(), p, 120, 1)
		_, attrs, sizes := tracedListing(t, d, l, DealConfig{Workers: p, MemEdges: m, blockEntries: 60, afterBlock: runtime.Gosched})
		for i := range attrs {
			if attrs[i] != sizes[i] {
				t.Fatalf("iteration %d: runner %d's chunk span says %d bytes spilled, its spill file has %d", it, i, attrs[i], sizes[i])
			}
			spilled += attrs[i]
		}
		if !bytes.Equal(out.buf.Bytes(), ref) {
			t.Fatalf("iteration %d: the listing differs from the defined sequence", it)
		}
	}
	if spilled == 0 {
		t.Fatal("no runner spilled")
	}
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
					l := newListing(&out, t.TempDir(), p, 12*50+4, 1)
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
