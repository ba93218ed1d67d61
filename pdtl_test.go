package pdtl

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

func tempStore(t testing.TB, g *graph.CSR, name string) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), name)
	if err := graph.WriteCSR(base, name, g); err != nil {
		t.Fatal(err)
	}
	return base
}

// openStore opens a handle on the store at base, closed with the test.
func openStore(t testing.TB, base string) *Graph {
	t.Helper()
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func TestPublicCount(t *testing.T) {
	base := filepath.Join(t.TempDir(), "k30")
	info, err := GenerateComplete(base, 30)
	if err != nil {
		t.Fatal(err)
	}
	if info.NumVertices != 30 || info.NumEdges != 435 {
		t.Fatalf("info = %+v", info)
	}
	res, err := openStore(t, base).Count(context.Background(), Options{Workers: 4, MemEdges: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != gen.CompleteTriangles(30) {
		t.Errorf("triangles = %d, want %d", res.Triangles, gen.CompleteTriangles(30))
	}
	if res.OrientTime <= 0 || res.MaxOutDegree != 29 {
		t.Errorf("orientation info missing: %+v", res)
	}
	if len(res.Workers) != 4 {
		t.Errorf("workers = %d", len(res.Workers))
	}
}

func TestPublicCountDefaults(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 8, 8, 1); err != nil {
		t.Fatal(err)
	}
	res, err := openStore(t, base).Count(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles == 0 {
		t.Error("RMAT graph should contain triangles")
	}
}

func TestPublicListAndRead(t *testing.T) {
	g, err := gen.TriGrid(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g, "tg")
	out := filepath.Join(t.TempDir(), "tris.bin")
	res, err := openStore(t, base).ListFile(context.Background(), out, Options{Workers: 3, MemEdges: 16})
	if err != nil {
		t.Fatal(err)
	}
	tris, err := ReadTriangleFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want := gen.TriGridTriangles(6, 6)
	if res.Triangles != want || uint64(len(tris)) != want {
		t.Errorf("count=%d listed=%d want=%d", res.Triangles, len(tris), want)
	}
	seen := map[[3]uint32]bool{}
	for _, tri := range tris {
		if seen[tri] {
			t.Fatalf("duplicate %v", tri)
		}
		seen[tri] = true
	}
}

func TestPublicForEach(t *testing.T) {
	g, err := gen.ErdosRenyi(150, 1200, 6)
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g, "er")
	var count atomic.Uint64
	res, err := openStore(t, base).ForEach(context.Background(), Options{Workers: 4, MemEdges: 64}, func(u, v, w uint32) {
		count.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := baseline.Forward(g); count.Load() != want || res.Triangles != want {
		t.Errorf("callback=%d result=%d want=%d", count.Load(), res.Triangles, want)
	}
}

func TestPublicTriangleDegrees(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g, "tri")
	counts, res, err := openStore(t, base).TriangleDegrees(context.Background(), Options{Workers: 2, MemEdges: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Fatalf("triangles = %d", res.Triangles)
	}
	want := []uint64{1, 1, 1, 0}
	for v, c := range counts {
		if c != want[v] {
			t.Errorf("counts[%d] = %d, want %d", v, c, want[v])
		}
	}
}

func TestPublicWriteGraphAndImport(t *testing.T) {
	base := filepath.Join(t.TempDir(), "manual")
	info, err := WriteGraph(base, "manual", 4, [][2]uint32{{0, 1}, {1, 2}, {2, 0}, {3, 3}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if info.NumEdges != 3 {
		t.Errorf("edges = %d, want 3 (loop and dup removed)", info.NumEdges)
	}
	res, err := openStore(t, base).Count(context.Background(), Options{Workers: 1, MemEdges: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Errorf("triangles = %d, want 1", res.Triangles)
	}

	// Text import of the same triangle.
	base2 := filepath.Join(t.TempDir(), "txt")
	info2, err := ImportEdgeListText(strings.NewReader("0 1\n1 2\n2 0\n"), base2, "txt")
	if err != nil {
		t.Fatal(err)
	}
	if info2.NumEdges != 3 {
		t.Errorf("text import edges = %d", info2.NumEdges)
	}
}

func TestPublicDistributed(t *testing.T) {
	g, err := gen.RMAT(9, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := tempStore(t, g, "dist")
	pool, err := StartLocalWorkers(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	res, err := openStore(t, base).CountDistributed(context.Background(), pool.Addrs(), ClusterOptions{Workers: 2, MemEdges: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != want {
		t.Errorf("triangles = %d, want %d", res.Triangles, want)
	}
	if len(res.Nodes) != 3 {
		t.Errorf("nodes = %d, want 3", len(res.Nodes))
	}
	if res.NetworkBytes == 0 {
		t.Error("network bytes missing")
	}
}

func TestPublicServeWorker(t *testing.T) {
	w, err := ServeWorkerContext(context.Background(), "127.0.0.1:0", "w1", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Addr() == "" {
		t.Error("no address")
	}
	g, err := gen.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	base := tempStore(t, g, "k10")
	res, err := openStore(t, base).CountDistributed(context.Background(), []string{w.Addr()}, ClusterOptions{Workers: 1, MemEdges: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != gen.CompleteTriangles(10) {
		t.Errorf("triangles = %d", res.Triangles)
	}
}

func TestVerifySmallDegreePublic(t *testing.T) {
	base := filepath.Join(t.TempDir(), "k16")
	if _, err := GenerateComplete(base, 16); err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	if err := g.VerifySmallDegree(64); err != nil {
		t.Errorf("d*max=15 <= 32, want pass: %v", err)
	}
	if err := g.VerifySmallDegree(16); err == nil {
		t.Error("d*max=15 > 8, want advisory error")
	}
}

func TestPublicApproximate(t *testing.T) {
	base := filepath.Join(t.TempDir(), "rmat")
	if _, err := GenerateRMAT(base, 10, 16, 5); err != nil {
		t.Fatal(err)
	}
	g := openStore(t, base)
	res, err := g.Count(context.Background(), Options{Workers: 2, MemEdges: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(res.Triangles)
	doulion, err := g.EstimateDoulion(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if doulion < exact/2 || doulion > exact*2 {
		t.Errorf("Doulion estimate %.0f far from exact %.0f", doulion, exact)
	}
	wedges, err := g.EstimateWedges(50_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if wedges < exact*0.8 || wedges > exact*1.2 {
		t.Errorf("wedge estimate %.0f far from exact %.0f", wedges, exact)
	}
}

func TestInfoOnOriented(t *testing.T) {
	base := filepath.Join(t.TempDir(), "k8")
	if _, err := GenerateComplete(base, 8); err != nil {
		t.Fatal(err)
	}
	res, err := openStore(t, base).Count(context.Background(), Options{Workers: 1, MemEdges: 16})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Info(res.OrientedBase)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Oriented || info.MaxOutDegree != 7 {
		t.Errorf("oriented info = %+v", info)
	}
}

// TestOptionsKey: a local key holds what a local run computes with — the
// worker count and budget as given, the layout, the kernel and the store
// format, and the balance strategy only under the one layout that splits
// the store — so spelled-out defaults, the schedule and its chunks, and
// naive balance under "auto" leave it unchanged. A cluster key still tells
// the schedule, its chunks and the balance strategy apart.
func TestOptionsKey(t *testing.T) {
	key := func(o Options) string {
		t.Helper()
		k, err := o.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	zero := key(Options{})
	for _, tc := range []struct {
		name string
		opt  Options
		same bool
	}{
		{"defaults spelled out", Options{Workers: runtime.NumCPU(), MemEdges: core.DefaultMemEdges, ScanSource: "auto", Kernel: "auto", Sched: "static", StoreFormat: "plain"}, true},
		{"naive under auto", Options{NaiveBalance: true}, true},
		{"stealing", Options{Sched: "stealing"}, true},
		{"workers", Options{Workers: runtime.NumCPU() + 1}, false},
		{"mem", Options{MemEdges: core.DefaultMemEdges + 1}, false},
		{"buffered", Options{ScanSource: "buffered"}, false},
		{"merge", Options{Kernel: "merge"}, false},
		{"compressed", Options{StoreFormat: "compressed"}, false},
	} {
		if got := key(tc.opt); (got == zero) != tc.same {
			t.Errorf("%s: key %q, zero value's %q; want same=%v", tc.name, got, zero, tc.same)
		}
	}
	buffered := key(Options{ScanSource: "buffered"})
	if key(Options{ScanSource: "buffered", NaiveBalance: true}) == buffered {
		t.Error("naive balance under buffered shares the in-degree key")
	}
	if _, err := (Options{Sched: "dynamic"}).Key(); err == nil {
		t.Error("Key accepted an unknown scheduler name")
	}

	ckey := func(o ClusterOptions) string {
		t.Helper()
		k, err := o.Key(nil)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	cluster := map[string]bool{}
	for _, o := range []ClusterOptions{
		{},
		{Sched: "stealing"},
		{Sched: "stealing", Chunks: 3},
		{NaiveBalance: true},
	} {
		cluster[ckey(o)] = true
	}
	if len(cluster) != 4 {
		t.Errorf("cluster keys %v: want sched, chunks and naive each told apart", cluster)
	}
	if ckey(ClusterOptions{Workers: 1, MemEdges: core.DefaultMemEdges, Sched: "static"}) != ckey(ClusterOptions{}) {
		t.Error("spelled-out cluster defaults change the key")
	}
}
