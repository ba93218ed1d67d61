package mgt

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
)

// orientedStore writes g, orients it, and opens the oriented store.
func orientedStore(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.Orient(src, dst, 2); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// compressedStore orients g into a compressed store.
func compressedStore(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "g.oriented")
	if _, err := orient.OrientFormat(src, dst, 2, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runOnce runs one range on a fresh Runner over d and tears it down.
func runOnce(d *graph.Disk, cfg Config, rng balance.Range, sink Sink) (Stats, error) {
	r, err := NewRunner(d, cfg)
	if err != nil {
		return Stats{}, err
	}
	defer r.Close()
	return r.RunRange(context.Background(), rng, sink)
}

func TestMGTKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    func() (*graph.CSR, error)
		want uint64
	}{
		{"K4", func() (*graph.CSR, error) { return gen.Complete(4) }, 4},
		{"K12", func() (*graph.CSR, error) { return gen.Complete(12) }, gen.CompleteTriangles(12)},
		{"TriGrid6x6", func() (*graph.CSR, error) { return gen.TriGrid(6, 6) }, gen.TriGridTriangles(6, 6)},
		{"Grid10x10", func() (*graph.CSR, error) { return gen.Grid(10, 10) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			d := orientedStore(t, g)
			st, err := runOnce(d, Config{MemEdges: 64}, FullRange(d), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Triangles != tc.want {
				t.Errorf("triangles = %d, want %d", st.Triangles, tc.want)
			}
		})
	}
}

func TestMGTMemoryBudgetInvariance(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 1500, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	d := orientedStore(t, g)
	for _, m := range []int{2, 7, 33, 128, 1 << 20} {
		st, err := runOnce(d, Config{MemEdges: m}, FullRange(d), nil)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if st.Triangles != want {
			t.Errorf("M=%d: triangles = %d, want %d", m, st.Triangles, want)
		}
		wantPasses := int((d.Meta.AdjEntries + uint64(m) - 1) / uint64(m))
		if st.Passes != wantPasses {
			t.Errorf("M=%d: passes = %d, want R=ceil(S/M)=%d", m, st.Passes, wantPasses)
		}
	}
}

func TestMGTScanVolumeMatchesTheory(t *testing.T) {
	// Theorem IV.2 with one reader: each pass reads every list the window
	// does not hold whole once, plus the window loads, which sum to the
	// range size.
	g, err := gen.ErdosRenyi(200, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		m := int(d.Meta.AdjEntries)/4 + 1
		st, err := runOnce(d, Config{MemEdges: m}, FullRange(d), nil)
		if err != nil {
			t.Fatal(err)
		}
		scans, loads := oneReaderBytes(d, FullRange(d), m)
		if st.IO.BytesRead != scans+loads || st.Passes != 4 {
			t.Errorf("%s: %d passes read %d bytes, want 4 passes reading %d for lists outside the windows + %d for the loads", d.Format(), st.Passes, st.IO.BytesRead, scans, loads)
		}
		if d.Format() == graph.FormatPlain && loads != int64(st.EdgesLoaded)*graph.EntrySize {
			t.Errorf("window loads read %d bytes for %d entries", loads, st.EdgesLoaded)
		}
		if st.EdgesLoaded != d.Meta.AdjEntries {
			t.Errorf("%s: edges loaded = %d, want %d", d.Format(), st.EdgesLoaded, d.Meta.AdjEntries)
		}
	}
}

func TestMGTRangePartition(t *testing.T) {
	// Splitting the edge range across runners partitions the triangles:
	// counts sum to the total, regardless of cut points.
	g, err := gen.PowerLaw(400, 4000, 2.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	d := orientedStore(t, g)
	total := d.Meta.AdjEntries
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		k := 1 + rng.Intn(6)
		cuts := make([]uint64, 0, k+1)
		cuts = append(cuts, 0)
		for i := 0; i < k-1; i++ {
			cuts = append(cuts, uint64(rng.Int63n(int64(total)+1)))
		}
		cuts = append(cuts, total)
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		var sum uint64
		for i := 0; i+1 < len(cuts); i++ {
			st, err := runOnce(d, Config{MemEdges: 97}, balance.Range{Lo: cuts[i], Hi: cuts[i+1]}, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum += st.Triangles
		}
		if sum != want {
			t.Errorf("trial %d cuts %v: sum = %d, want %d", trial, cuts, sum, want)
		}
	}
}

func TestMGTListingMatchesForward(t *testing.T) {
	g, err := gen.ErdosRenyi(120, 1400, 23)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[[3]graph.Vertex]bool{}
	baseline.ForwardList(g, func(u, v, w graph.Vertex) {
		wantSet[[3]graph.Vertex{u, v, w}] = true
	})

	d := orientedStore(t, g)
	perm, err := d.Perm()
	if err != nil {
		t.Fatal(err)
	}
	gotSet := map[[3]graph.Vertex]bool{}
	dup := false
	sink := FuncSink(func(u, v, w graph.Vertex) {
		key := [3]graph.Vertex{perm[u], perm[v], perm[w]}
		if gotSet[key] {
			dup = true
		}
		gotSet[key] = true
	})
	st, err := runOnce(d, Config{MemEdges: 53}, FullRange(d), sink)
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Error("a triangle was listed twice")
	}
	if len(gotSet) != len(wantSet) {
		t.Fatalf("listed %d distinct triangles, want %d", len(gotSet), len(wantSet))
	}
	for tri := range wantSet {
		if !gotSet[tri] {
			t.Errorf("missing triangle %v", tri)
		}
	}
	if st.Triangles != uint64(len(wantSet)) {
		t.Errorf("stat count %d != listed %d", st.Triangles, len(wantSet))
	}
}

func TestMGTConfigValidation(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	if _, err := runOnce(d, Config{MemEdges: 0}, FullRange(d), nil); err == nil {
		t.Error("want error for M=0")
	}
	if _, err := runOnce(d, Config{MemEdges: 8}, balance.Range{Lo: 5, Hi: 99999}, nil); err == nil {
		t.Error("want error for out-of-bounds range")
	}
	// Unoriented store must be rejected.
	dir := t.TempDir()
	src := filepath.Join(dir, "u")
	if err := graph.WriteCSR(src, "u", g); err != nil {
		t.Fatal(err)
	}
	ud, err := graph.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(ud, Config{MemEdges: 8}, FullRange(ud), nil); err == nil {
		t.Error("want error for unoriented store")
	}
}

func TestLargeVertexPath(t *testing.T) {
	// K_n has every out-list equal to n-1-id entries (degree ties broken
	// by id), so with M ≪ n the large-vertex path handles most cones.
	g, err := gen.Complete(150)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	st, err := runOnce(d, Config{MemEdges: 32}, FullRange(d), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Triangles != gen.CompleteTriangles(150) {
		t.Errorf("triangles = %d, want %d", st.Triangles, gen.CompleteTriangles(150))
	}
	if st.LargeVertices == 0 {
		t.Error("large-vertex path not exercised with M=32, d*max=149")
	}
	// The same budget must also list exactly once.
	seen := map[[3]graph.Vertex]bool{}
	dup := false
	st2, err := runOnce(d, Config{MemEdges: 32}, FullRange(d), FuncSink(func(u, v, w graph.Vertex) {
		key := [3]graph.Vertex{u, v, w}
		if seen[key] {
			dup = true
		}
		seen[key] = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	if dup {
		t.Error("large-vertex path listed a triangle twice")
	}
	if uint64(len(seen)) != st2.Triangles || st2.Triangles != st.Triangles {
		t.Errorf("listing mismatch: %d vs %d vs %d", len(seen), st2.Triangles, st.Triangles)
	}
}

func TestLargeVertexSkewedGraph(t *testing.T) {
	// A hub graph whose orientation gives one vertex a huge out-list:
	// vertex ids tie-break the degree order, so in a clique of equal
	// degrees vertex 0 points at everyone. Mix in a sparse periphery so
	// windows span both regimes, and sweep budgets below d*max.
	g, err := gen.PowerLaw(800, 12000, 1.8, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	d := orientedStore(t, g)
	if d.Meta.MaxOutDegree < 40 {
		t.Skipf("generator produced d*max=%d, too small to exercise the path", d.Meta.MaxOutDegree)
	}
	for _, m := range []int{3, 11, int(d.Meta.MaxOutDegree) / 2} {
		st, err := runOnce(d, Config{MemEdges: m}, FullRange(d), nil)
		if err != nil {
			t.Fatalf("M=%d: %v", m, err)
		}
		if st.Triangles != want {
			t.Errorf("M=%d: triangles = %d, want %d", m, st.Triangles, want)
		}
		if st.LargeVertices == 0 {
			t.Errorf("M=%d < d*max=%d should hit the large path", m, d.Meta.MaxOutDegree)
		}
	}
}

// TestListingRoundTrip: what one part of a listing is told, ReadTriangles
// reads back, in order.
func TestListingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewListing(&buf, 1, nil)
	part := l.Part(0)
	part.Begin(0)
	want := [][3]graph.Vertex{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for _, tri := range want {
		part.Triangles(tri[0], tri[1], tri[2:])
	}
	if err := part.End(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTriangles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d triples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("triple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStatsAddAndCPUTime(t *testing.T) {
	a := Stats{Triangles: 3, Passes: 1, Wall: 100}
	b := Stats{Triangles: 4, Passes: 2, Wall: 70}
	sum := a.Add(b)
	if sum.Triangles != 7 || sum.Passes != 3 {
		t.Errorf("Add = %+v", sum)
	}
	if sum.Wall != 100 {
		t.Errorf("Wall should be the max (straggler): %v", sum.Wall)
	}
	s := Stats{Wall: 50}
	if s.CPUTime() != 50 {
		t.Errorf("CPUTime = %v", s.CPUTime())
	}
}

// Property: MGT equals the in-memory reference on random graphs for random
// memory budgets.
func TestMGTMatchesReferenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64, mRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(80)
		g, err := gen.ErdosRenyi(n, rng.Intn(8*n), seed)
		if err != nil {
			return false
		}
		d := orientedStore(t, g)
		m := 1 + int(mRaw%512)
		st, err := runOnce(d, Config{MemEdges: m}, FullRange(d), nil)
		if err != nil {
			return false
		}
		return st.Triangles == baseline.Forward(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
