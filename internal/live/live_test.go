package live

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/extsort"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/orient"
)

// writeOriented writes g and its orientation under dir, returning the
// oriented base path.
func writeOriented(t testing.TB, dir string, g *graph.CSR, format graph.Format) string {
	t.Helper()
	src := filepath.Join(dir, "g")
	dst := src + ".oriented"
	if err := graph.WriteCSR(src, "g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := orient.OrientFormat(src, dst, 2, format); err != nil {
		t.Fatal(err)
	}
	return dst
}

// edgeSet tracks the reference graph as a set of canonical edges.
type edgeSet map[[2]graph.Vertex]bool

func canon(u, v graph.Vertex) [2]graph.Vertex {
	if u > v {
		u, v = v, u
	}
	return [2]graph.Vertex{u, v}
}

func setFromCSR(g *graph.CSR) edgeSet {
	s := edgeSet{}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			s[canon(graph.Vertex(u), v)] = true
		}
	}
	return s
}

// csr materializes the set as an undirected CSR.
func (s edgeSet) csr(t testing.TB) *graph.CSR {
	t.Helper()
	var edges []graph.Edge
	n := 1
	for e := range s {
		edges = append(edges, graph.Edge{U: uint32(e[0]), V: uint32(e[1])})
		if int(e[1])+1 > n {
			n = int(e[1]) + 1
		}
		if int(e[0])+1 > n {
			n = int(e[0]) + 1
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomBatch builds a valid batch of size k against s, mutating s to the
// post-batch state. maxV bounds vertex ids (beyond the base graph to
// exercise vertex creation).
func randomBatch(rng *rand.Rand, s edgeSet, k, maxV int) []Update {
	var batch []Update
	for len(batch) < k {
		u := graph.Vertex(rng.Intn(maxV))
		v := graph.Vertex(rng.Intn(maxV))
		if u == v {
			continue
		}
		e := canon(u, v)
		if s[e] {
			if rng.Intn(3) == 0 { // delete a third of the time we hit a live edge
				batch = append(batch, Update{U: u, V: v, Del: true})
				delete(s, e)
			}
		} else {
			batch = append(batch, Update{U: u, V: v})
			s[e] = true
		}
	}
	return batch
}

func countLive(t *testing.T, g *Graph, opt core.Options) uint64 {
	t.Helper()
	res, _, err := g.Count(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Triangles
}

// listingSinks returns one sink per runner and a function that gathers what
// they received: every triangle with its vertices in ascending order, the
// triangles sorted — a listing set that does not depend on orientation,
// runner or order.
func listingSinks(runners int) ([]mgt.Sink, func() [][3]graph.Vertex) {
	got := make([][][3]graph.Vertex, runners)
	sinks := make([]mgt.Sink, runners)
	for i := range sinks {
		sinks[i] = mgt.FuncSink(func(u, v, w graph.Vertex) {
			tri := [3]graph.Vertex{u, v, w}
			slices.Sort(tri[:])
			got[i] = append(got[i], tri)
		})
	}
	return sinks, func() [][3]graph.Vertex {
		all := slices.Concat(got...)
		slices.SortFunc(all, func(a, b [3]graph.Vertex) int { return slices.Compare(a[:], b[:]) })
		return all
	}
}

// storeListing counts and lists the triangles of s written to disk as a
// fresh oriented store in format — what compacting the live graph into a
// snapshot holds.
func storeListing(t *testing.T, s edgeSet, format graph.Format) (uint64, [][3]graph.Vertex) {
	t.Helper()
	base := writeOriented(t, t.TempDir(), s.csr(t), format)
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := d.Perm()
	if err != nil {
		t.Fatal(err)
	}
	// In original ids, as the live graph lists.
	opt := core.Options{Workers: 2, IDs: ids}
	sinks, listing := listingSinks(2)
	opt.Sinks = sinks
	calc, err := core.RunRanges(context.Background(), d, []balance.Range{mgt.FullRange(d)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, w := range calc.Workers {
		n += w.Stats.Triangles
	}
	return n, listing()
}

func TestLiveChurnCrosscheck(t *testing.T) {
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		t.Run(string(format), func(t *testing.T) {
			g0, err := gen.PowerLaw(200, 1500, 2.2, 5)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			base := writeOriented(t, dir, g0, format)
			lg, err := Open(base, Config{Dir: dir, Name: "churn", StoreFormat: format})
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()

			ref := setFromCSR(g0)
			if got, want := countLive(t, lg, core.Options{Workers: 2}), baseline.Forward(g0); got != want {
				t.Fatalf("pre-churn count = %d want %d", got, want)
			}

			rng := rand.New(rand.NewSource(17))
			for round := 0; round < 12; round++ {
				batch := randomBatch(rng, ref, 40, 220)
				if err := lg.ApplyBatch(batch); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				want := baseline.Forward(ref.csr(t))
				stored, storedList := storeListing(t, ref, format)
				if stored != want {
					t.Fatalf("round %d: the graph written to disk has %d triangles, want %d", round, stored, want)
				}
				// Every (P, M): small budgets make many windows, and lists
				// that straddle them.
				for _, p := range []int{1, 2, 4} {
					for _, m := range []int{64, 1024, 0} {
						if got := countLive(t, lg, core.Options{Workers: p, MemEdges: m}); got != want {
							t.Fatalf("round %d P=%d M=%d: live count = %d want %d", round, p, m, got, want)
						}
					}
				}
				sinks, listing := listingSinks(4)
				if got := countLive(t, lg, core.Options{Workers: 4, MemEdges: 64, Sinks: sinks}); got != want {
					t.Fatalf("round %d: live listing run counted %d want %d", round, got, want)
				}
				if got := listing(); !slices.Equal(got, storedList) {
					t.Fatalf("round %d: live listing (%d triangles) differs from the stored graph's (%d)", round, len(got), len(storedList))
				}
				if st := lg.Stats(); st.NumEdges != uint64(len(ref)) {
					t.Fatalf("round %d: stats report %d edges, want %d", round, st.NumEdges, len(ref))
				}
				if round == 5 {
					if err := lg.CompactNow(context.Background()); err != nil {
						t.Fatalf("compact: %v", err)
					}
					if st := lg.Stats(); st.Gen != 1 || st.DeltaEdges != 0 {
						t.Fatalf("post-compact stats: %+v", st)
					}
					got := countLive(t, lg, core.Options{Workers: 2})
					if got != want {
						t.Fatalf("post-compact count = %d want %d", got, want)
					}
				}
			}
			if st := lg.Stats(); st.Batches != 12 {
				t.Fatalf("batches = %d", st.Batches)
			}
			// The final live view (the delta overlay is non-empty again after
			// the post-compaction rounds), counting and listing, must agree
			// with the baseline.
			want := baseline.Forward(ref.csr(t))
			if got := countLive(t, lg, core.Options{Workers: 2}); got != want {
				t.Fatalf("counting on live view = %d, want %d", got, want)
			}
			sinks := make([]mgt.Sink, 2)
			for i := range sinks {
				sinks[i] = &mgt.CountSink{}
			}
			if listed := countLive(t, lg, core.Options{Workers: 2, Sinks: sinks}); listed != want {
				t.Fatalf("listing on live view = %d, want %d", listed, want)
			}
		})
	}
}

func TestApplyBatchAtomicOnInvalid(t *testing.T) {
	g0, err := gen.ErdosRenyi(50, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "atomic"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	before := countLive(t, lg, core.Options{Workers: 1})

	// Find one present and one absent edge.
	ref := setFromCSR(g0)
	var present, absent [2]graph.Vertex
	for e := range ref {
		present = e
		break
	}
	for u := graph.Vertex(0); ; u++ {
		if !ref[canon(u, u+1)] {
			absent = canon(u, u+1)
			break
		}
	}

	// Valid prefix, invalid tail: nothing must be applied.
	bad := []Update{
		{U: absent[0], V: absent[1]},
		{U: present[0], V: present[1], Del: true},
		{U: present[0], V: present[1], Del: true}, // double delete → invalid
	}
	if err := lg.ApplyBatch(bad); err == nil {
		t.Fatal("want error for invalid batch")
	}
	if got := countLive(t, lg, core.Options{Workers: 1}); got != before {
		t.Fatalf("count after rejected batch = %d want %d", got, before)
	}
	if st := lg.Stats(); st.DeltaEdges != 0 || st.Batches != 0 {
		t.Fatalf("stats after rejected batch: %+v", st)
	}

	// Insert + delete of the same edge inside one batch is valid and nets
	// out.
	ok := []Update{
		{U: absent[0], V: absent[1]},
		{U: absent[0], V: absent[1], Del: true},
	}
	if err := lg.ApplyBatch(ok); err != nil {
		t.Fatal(err)
	}
	if st := lg.Stats(); st.DeltaEdges != 0 {
		t.Fatalf("self-cancelling batch left delta: %+v", st)
	}
}

func TestNewVerticesAndBaseDeletes(t *testing.T) {
	g0, err := gen.TriGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "nv"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ref := setFromCSR(g0)
	n := graph.Vertex(g0.NumVertices())

	// Attach a triangle fan on brand-new vertices, and delete every base
	// edge of vertex 0.
	var batch []Update
	for _, e := range [][2]graph.Vertex{{n, n + 1}, {n, n + 2}, {n + 1, n + 2}, {0, n}, {1, n}} {
		batch = append(batch, Update{U: e[0], V: e[1]})
		ref[canon(e[0], e[1])] = true
	}
	for _, v := range g0.Neighbors(0) {
		batch = append(batch, Update{U: 0, V: v, Del: true})
		delete(ref, canon(0, v))
	}
	if err := lg.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(ref.csr(t))
	if got := countLive(t, lg, core.Options{Workers: 2}); got != want {
		t.Fatalf("count = %d want %d", got, want)
	}
	// The runners mark neighbours in an array over the vertex ids of the
	// view they scan: it must cover the ids the delta introduced, on the
	// small-vertex path and (a two-entry window) the large-vertex one.
	if got := countLive(t, lg, core.Options{Workers: 2, MemEdges: 2}); got != want {
		t.Fatalf("count with a two-entry window = %d want %d", got, want)
	}
	if !lg.HasEdge(n, n+2) || lg.HasEdge(0, g0.Neighbors(0)[0]) {
		t.Fatal("HasEdge disagrees with applied batch")
	}

	// Compaction must survive the shape change (new vertices, emptied
	// vertex) and keep the count.
	if err := lg.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := countLive(t, lg, core.Options{Workers: 2}); got != want {
		t.Fatalf("post-compact count = %d want %d", got, want)
	}
}

// TestCompactionByteEquivalence pins the compaction determinism contract:
// the compacted snapshot is byte-for-byte the store a from-scratch
// external-sort build of the merged edge list produces.
func TestCompactionByteEquivalence(t *testing.T) {
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		t.Run(string(format), func(t *testing.T) {
			g0, err := gen.PowerLaw(150, 900, 2.0, 21)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			lg, err := Open(writeOriented(t, dir, g0, format), Config{Dir: dir, Name: "eq", StoreFormat: format})
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()

			ref := setFromCSR(g0)
			rng := rand.New(rand.NewSource(4))
			if err := lg.ApplyBatch(randomBatch(rng, ref, 120, 170)); err != nil {
				t.Fatal(err)
			}
			before := countLive(t, lg, core.Options{Workers: 2})
			if st := lg.Stats(); st.DeltaEdges == 0 || st.Compactions != 0 {
				t.Fatalf("pre-compact stats: %+v, want a delta and no compaction", st)
			}
			if err := lg.CompactNow(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Compaction folds the delta into the snapshot without changing
			// the graph, so the count stays.
			if st := lg.Stats(); st.DeltaEdges != 0 || st.Compactions != 1 {
				t.Fatalf("post-compact stats: %+v, want no delta and one compaction", st)
			}
			if after := countLive(t, lg, core.Options{Workers: 2}); after != before || after != baseline.Forward(ref.csr(t)) {
				t.Fatalf("count %d before compaction, %d after, want both %d", before, after, baseline.Forward(ref.csr(t)))
			}

			// From-scratch build of the same edge set, same name.
			edgeFile := filepath.Join(dir, "ref.edges")
			f, err := os.Create(edgeFile)
			if err != nil {
				t.Fatal(err)
			}
			var rec [extsort.EdgeBytes]byte
			for e := range ref {
				binary.LittleEndian.PutUint32(rec[0:], uint32(e[0]))
				binary.LittleEndian.PutUint32(rec[4:], uint32(e[1]))
				if _, err := f.Write(rec[:]); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			refBase := filepath.Join(dir, "refstore")
			if err := extsort.BuildStoreFormat(context.Background(), edgeFile, refBase, "eq", core.DefaultMemEdges, format, nil); err != nil {
				t.Fatal(err)
			}

			snapBase := filepath.Join(dir, "eq.gen1")
			for _, suffix := range storeSuffixes(format) {
				want, err := os.ReadFile(refBase + suffix)
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(snapBase + suffix)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s differs from from-scratch build (%d vs %d bytes)", suffix, len(got), len(want))
				}
			}
		})
	}
}

func storeSuffixes(format graph.Format) []string {
	if format == graph.FormatCompressed {
		return []string{".meta", ".deg", ".cadj", ".cidx"}
	}
	return []string{".meta", ".deg", ".adj"}
}

// TestConcurrentChurnQueryCompact drives mutations, exact queries, and
// compactions concurrently (the -race CI job runs this package). Every
// query must observe the exact count of some state the mutator published
// between the query's start and end — views are immutable snapshots, so a
// torn read would surface as a count matching no state.
func TestConcurrentChurnQueryCompact(t *testing.T) {
	g0, err := gen.PowerLaw(120, 700, 2.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain),
		Config{Dir: dir, Name: "conc", CompactEdges: 150})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	// Precompute the batch sequence and the exact count after each batch.
	const rounds = 30
	ref := setFromCSR(g0)
	rng := rand.New(rand.NewSource(13))
	batches := make([][]Update, rounds)
	counts := make([]uint64, rounds+1)
	counts[0] = baseline.Forward(g0)
	for i := 0; i < rounds; i++ {
		batches[i] = randomBatch(rng, ref, 25, 140)
		counts[i+1] = baseline.Forward(ref.csr(t))
	}

	var applied atomic.Int64 // index into counts of the latest published state
	var wg sync.WaitGroup
	stop := make(chan struct{})
	mutatorDone := make(chan struct{})

	wg.Add(1)
	go func() { // mutator (auto-compaction fires via CompactEdges)
		defer wg.Done()
		defer close(mutatorDone)
		for i := 0; i < rounds; i++ {
			if err := lg.ApplyBatch(batches[i]); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
			applied.Store(int64(i + 1))
		}
	}()

	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() { // queriers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				lo := applied.Load()
				res, n, err := lg.Count(context.Background(), core.Options{Workers: 2})
				if err != nil {
					t.Errorf("count: %v", err)
					return
				}
				// The mutator publishes a batch's view before it records
				// the batch in applied, so the view a count captured may be
				// one state past what applied says afterwards.
				hi := min(applied.Load()+1, rounds)
				ok := false
				for j := lo; j <= hi; j++ {
					if res.Triangles == counts[j] {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("count %d matches no state in [%d,%d]", res.Triangles, lo, hi)
					return
				}
				// The count names the state it counted: the batches its
				// view holds, compactions included.
				if int64(n) < lo || int64(n) > hi || res.Triangles != counts[n] {
					t.Errorf("count %d names %d batches, want a batch in [%d,%d] whose state has that count",
						res.Triangles, n, lo, hi)
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // explicit compactor racing the auto one
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := lg.CompactNow(context.Background()); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
		}
	}()

	// Stop the queriers once the mutator finishes.
	<-mutatorDone
	close(stop)
	wg.Wait()

	if err := lg.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := countLive(t, lg, core.Options{Workers: 2}); got != counts[rounds] {
		t.Fatalf("final count = %d want %d", got, counts[rounds])
	}
	if st := lg.Stats(); st.Compactions == 0 {
		t.Fatal("no compaction ran")
	}
}

// TestMergedReadAt: the merged view's bytes, read at any offset and length,
// are the plain encoding of its oriented lists — base ∪ inserts ∖ deletes,
// each built here from the reference edge set under the base rank — reads
// past the end fail, and concurrent readers agree.
func TestMergedReadAt(t *testing.T) {
	g0, err := gen.PowerLaw(100, 1200, 1.8, 12)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lg, err := Open(writeOriented(t, dir, g0, graph.FormatPlain), Config{Dir: dir, Name: "readat"})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	ref := setFromCSR(g0)
	rng := rand.New(rand.NewSource(6))
	// New vertices (ids up to 130) and base deletes: every tenth base edge.
	batch := randomBatch(rng, ref, 60, 130)
	for u := range g0.NumVertices() {
		for _, v := range g0.Neighbors(graph.Vertex(u)) {
			if e := canon(graph.Vertex(u), v); graph.Vertex(u) < v && ref[e] && rng.Intn(10) == 0 {
				batch = append(batch, Update{U: e[0], V: e[1], Del: true})
				delete(ref, e)
			}
		}
	}
	if err := lg.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	m, err := lg.currentView().merged()
	if err != nil {
		t.Fatal(err)
	}
	if m.numVertices() <= g0.NumVertices() || len(m.outDel) == 0 {
		t.Fatalf("batch made %d vertices of %d and deleted base edges of %d: want both", m.numVertices(), g0.NumVertices(), len(m.outDel))
	}

	lists := make([][]graph.Vertex, m.numVertices())
	for e := range ref {
		u, v := e[0], e[1]
		if m.base.rankLess(v, u) {
			u, v = v, u
		}
		lists[u] = append(lists[u], v)
	}
	var want []byte
	for u, l := range lists {
		slices.Sort(l)
		if uint32(len(l)) != m.disk.Degrees[u] {
			t.Fatalf("vertex %d: merged degree %d, want %d", u, m.disk.Degrees[u], len(l))
		}
		for _, v := range l {
			want = binary.LittleEndian.AppendUint32(want, v)
		}
	}
	size := int64(len(want))
	if size != int64(m.disk.Meta.AdjEntries)*graph.EntrySize {
		t.Fatalf("reference holds %d bytes, the view %d entries", size, m.disk.Meta.AdjEntries)
	}

	check := func(rng *rand.Rand, reads int) error {
		for range reads {
			off := rng.Int63n(size)
			p := make([]byte, rng.Int63n(min(size-off, 600))+1)
			if n, err := m.ReadAt(p, off); err != nil || n != len(p) {
				return fmt.Errorf("ReadAt(%d bytes at %d) = %d, %v", len(p), off, n, err)
			}
			if !bytes.Equal(p, want[off:off+int64(len(p))]) {
				return fmt.Errorf("ReadAt(%d bytes at %d) differs from the merged lists", len(p), off)
			}
		}
		return nil
	}
	if err := check(rng, 2000); err != nil {
		t.Fatal(err)
	}
	whole := make([]byte, size)
	if n, err := m.ReadAt(whole, 0); err != nil || n != len(whole) || !bytes.Equal(whole, want) {
		t.Fatalf("whole-area read = %d, %v (equal %v)", n, err, bytes.Equal(whole, want))
	}

	// Past the end: the reader reports it, and the engine's AdjFile fails
	// instead of handing back short data.
	tail := make([]byte, 2*graph.EntrySize)
	if n, err := m.ReadAt(tail, size-graph.EntrySize); n != graph.EntrySize || err != io.EOF {
		t.Errorf("read straddling the end = %d, %v; want %d, io.EOF", n, err, graph.EntrySize)
	}
	adj, err := m.disk.OpenAdjFile(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer adj.Close()
	if err := adj.ReadAt(tail, size-graph.EntrySize); err == nil {
		t.Error("AdjFile read past the merged area succeeded")
	}
	if err := adj.ReadAt(tail, size+graph.EntrySize); err == nil {
		t.Error("AdjFile read beyond the merged area succeeded")
	}

	const P = 4
	errs := make([]error, P)
	var wg sync.WaitGroup
	for i := range P {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = check(rand.New(rand.NewSource(int64(i))), 500)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}
