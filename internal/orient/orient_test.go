package orient

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

func writeStore(t *testing.T, g *graph.CSR, name string) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), name)
	if err := graph.WriteCSR(base, name, g); err != nil {
		t.Fatal(err)
	}
	return base
}

// orientOnDisk orients g through the store and returns the result and the
// oriented store as it lies on disk, in rank space.
func orientOnDisk(t *testing.T, g *graph.CSR, workers int) (*Result, *graph.CSR) {
	t.Helper()
	res, d := orientStore(t, g, workers)
	oriented, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	return res, oriented
}

func orientStore(t *testing.T, g *graph.CSR, workers int) (*Result, *graph.Disk) {
	t.Helper()
	src := writeStore(t, g, "src")
	dst := filepath.Join(t.TempDir(), "dst")
	res, err := Orient(src, dst, workers)
	if err != nil {
		t.Fatalf("Orient: %v", err)
	}
	d, err := graph.Open(dst)
	if err != nil {
		t.Fatalf("Open oriented: %v", err)
	}
	if !d.Meta.Oriented || !d.Meta.Ranked {
		t.Fatalf("output marked oriented=%v ranked=%v", d.Meta.Oriented, d.Meta.Ranked)
	}
	return res, d
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	deg := []uint32{3, 1, 1, 5, 3}
	n := graph.Vertex(len(deg))
	for u := graph.Vertex(0); u < n; u++ {
		if Less(deg, u, u) {
			t.Errorf("Less(%d,%d) must be false (irreflexive)", u, u)
		}
		for v := graph.Vertex(0); v < n; v++ {
			if u == v {
				continue
			}
			if Less(deg, u, v) == Less(deg, v, u) {
				t.Errorf("Less not antisymmetric/total for (%d,%d)", u, v)
			}
			for w := graph.Vertex(0); w < n; w++ {
				if Less(deg, u, v) && Less(deg, v, w) && !Less(deg, u, w) {
					t.Errorf("Less not transitive: %d≺%d≺%d", u, v, w)
				}
			}
		}
	}
}

func TestOrientK4(t *testing.T) {
	g, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	res, d := orientStore(t, g, 1)
	oriented, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	// All degrees equal, so ≺ falls back to id order: rank v, new id 3−v,
	// and new vertex x's out-list is {0, ..., x−1}.
	if oriented.NumEdges() != 6 {
		t.Errorf("oriented edges = %d, want 6", oriented.NumEdges())
	}
	if res.MaxOutDegree != 3 {
		t.Errorf("d*max = %d, want 3", res.MaxOutDegree)
	}
	if got := oriented.Neighbors(3); !reflect.DeepEqual(got, []graph.Vertex{0, 1, 2}) {
		t.Errorf("out(3) = %v", got)
	}
	if got := oriented.Degree(0); got != 0 {
		t.Errorf("out-degree of vertex 0, the last in ≺, = %d, want 0", got)
	}
	// In-degrees: d(v) - d*(v), by new id.
	wantIn := []uint32{3, 2, 1, 0}
	if inDeg, err := LoadInDegrees(d.Base, d.NumVertices()); err != nil || !reflect.DeepEqual(inDeg, wantIn) {
		t.Errorf("in-degrees = %v, %v; want %v", inDeg, err, wantIn)
	}
	perm, err := d.Perm()
	if err != nil || !reflect.DeepEqual(perm, []graph.Vertex{3, 2, 1, 0}) {
		t.Errorf("perm = %v, %v; want [3 2 1 0]", perm, err)
	}
}

// TestOrientMatchesCSR: the store, mapped back through .perm, is the
// id-space orientation exactly; in its own ids it is in rank space —
// degrees non-increasing along the ids, and every out-neighbour below its
// vertex, in ascending order.
func TestOrientMatchesCSR(t *testing.T) {
	g, err := gen.PowerLaw(300, 2500, 2.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	inMem := CSR(g)
	deg := g.Degrees()
	for _, workers := range []int{1, 2, 3, 8} {
		_, d := orientStore(t, g, workers)
		onDisk, err := d.OriginalCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(onDisk.Adj, inMem.Adj) || !reflect.DeepEqual(onDisk.Offsets, inMem.Offsets) {
			t.Errorf("workers=%d: disk orientation, in original ids, differs from in-memory", workers)
		}
		ranked, err := d.LoadCSR()
		if err != nil {
			t.Fatal(err)
		}
		perm, err := d.Perm()
		if err != nil {
			t.Fatal(err)
		}
		for x := range ranked.NumVertices() {
			if x > 0 && !Less(deg, perm[x], perm[x-1]) {
				t.Fatalf("workers=%d: vertex %d (was %d) does not precede vertex %d (was %d) in ≺", workers, x, perm[x], x-1, perm[x-1])
			}
			list := ranked.Neighbors(graph.Vertex(x))
			for i, y := range list {
				if y >= graph.Vertex(x) || (i > 0 && list[i-1] >= y) {
					t.Fatalf("workers=%d: out-list of %d is %v", workers, x, list)
				}
			}
		}
	}
}

// TestOrientWriteBackPasses: a write-back buffer far smaller than the store
// — a few lists a pass, and shorter than the longest list — writes the same
// store as one pass, in either format.
func TestOrientWriteBackPasses(t *testing.T) {
	g, err := gen.PowerLaw(400, 4000, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	src := writeStore(t, g, "src")
	dir := t.TempDir()
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		one := filepath.Join(dir, "one-"+string(format))
		if _, err := OrientFormat(src, one, 3, format); err != nil {
			t.Fatal(err)
		}
		saved := writeBackBytes
		writeBackBytes = 40
		many := filepath.Join(dir, "many-"+string(format))
		_, err := OrientFormat(src, many, 3, format)
		writeBackBytes = saved
		if err != nil {
			t.Fatal(err)
		}
		files := []string{graph.AdjPath(""), graph.DegPath(""), InDegPath(""), graph.PermPath("")}
		if format == graph.FormatCompressed {
			files[0] = graph.CAdjPath("")
			files = append(files, graph.CIdxPath(""))
		}
		for _, ext := range files {
			a, err := os.ReadFile(one + ext)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(many + ext)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("%s: %s written in many passes differs from one pass", format, ext)
			}
		}
		if left, _ := filepath.Glob(many + ".spill*"); len(left) > 0 {
			t.Errorf("%s: spills left behind: %v", format, left)
		}
	}
}

func TestOrientRejectsOriented(t *testing.T) {
	g, err := gen.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	src := writeStore(t, g, "src")
	dst := filepath.Join(t.TempDir(), "o1")
	if _, err := Orient(src, dst, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Orient(dst, filepath.Join(t.TempDir(), "o2"), 1); err == nil {
		t.Fatal("orienting an oriented store must fail")
	}
}

func TestOrientEmptyAndTiny(t *testing.T) {
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, oriented := orientOnDisk(t, empty, 4); oriented.NumEdges() != 0 {
		t.Error("empty orientation should have no edges")
	}
	single, err := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	_, oriented := orientOnDisk(t, single, 8)
	if oriented.NumEdges() != 1 {
		t.Errorf("single edge oriented to %d edges", oriented.NumEdges())
	}
}

// Property: orientation keeps exactly one direction of every undirected
// edge, out-lists stay sorted, and Σ d_G(v)·d_G*(v) respects the arboricity
// bound proof chain (≤ Σ min degrees, Theorem IV.1).
func TestOrientationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g, err := gen.ErdosRenyi(n, rng.Intn(5*n), seed)
		if err != nil {
			return false
		}
		o := CSR(g)
		if o.NumEdges() != g.NumEdges() {
			return false
		}
		deg := g.Degrees()
		for u := 0; u < n; u++ {
			list := o.Neighbors(graph.Vertex(u))
			for i, v := range list {
				if !Less(deg, graph.Vertex(u), v) {
					return false // wrong direction kept
				}
				if i > 0 && list[i-1] >= v {
					return false // unsorted
				}
			}
		}
		// Theorem IV.1 chain: Σ d(v)·d*(v) ≤ Σ_(u,v)∈E min(d(u),d(v)).
		outDeg := o.Degrees()
		if graph.OrderingSum(g, outDeg) > graph.MinDegreeSum(g) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: worker count never changes the result.
func TestOrientWorkerInvariance(t *testing.T) {
	g, err := gen.RMAT(9, 8, 77)
	if err != nil {
		t.Fatal(err)
	}
	_, ref := orientOnDisk(t, g, 1)
	for _, workers := range []int{2, 5, 16} {
		_, got := orientOnDisk(t, g, workers)
		if !reflect.DeepEqual(got.Adj, ref.Adj) {
			t.Errorf("workers=%d changed orientation output", workers)
		}
	}
}

func TestOrientRecordsIO(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := orientOnDisk(t, g, 2)
	if res.IO.BytesRead == 0 || res.IO.BytesWritten == 0 {
		t.Errorf("orientation IO not recorded: %+v", res.IO)
	}
	if res.Duration <= 0 {
		t.Error("duration not recorded")
	}
}

// TestOrientFormatCompressed checks that a compressed-format orientation is
// logically identical to the plain one — same metadata, same out-degrees,
// same adjacency content — and physically byte-identical to converting the
// plain output (the segment encoder is deterministic). Multiple worker
// counts exercise the parallel span encoding.
func TestOrientFormatCompressed(t *testing.T) {
	g, err := gen.PowerLaw(500, 7000, 1.9, 21)
	if err != nil {
		t.Fatal(err)
	}
	src := writeStore(t, g, "src")
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain")
	pres, err := Orient(src, plain, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "ref")
	if err := graph.ConvertStore(plain, ref, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	refCadj, err := os.ReadFile(graph.CAdjPath(ref))
	if err != nil {
		t.Fatal(err)
	}
	// The conversion carries the rank space along: the flag and .perm.
	if rd, err := graph.Open(ref); err != nil || !rd.Meta.Ranked {
		t.Fatalf("converted store: ranked=%v, %v", rd != nil && rd.Meta.Ranked, err)
	}
	if a, err := os.ReadFile(graph.PermPath(plain)); err != nil {
		t.Fatal(err)
	} else if b, err := os.ReadFile(graph.PermPath(ref)); err != nil || !bytes.Equal(a, b) {
		t.Fatalf("converted store's .perm differs: %v", err)
	}
	pd, err := graph.Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pd.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		comp := filepath.Join(dir, fmt.Sprintf("comp%d", workers))
		cres, err := OrientFormat(src, comp, workers, graph.FormatCompressed)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if cres.MaxOutDegree != pres.MaxOutDegree {
			t.Errorf("workers=%d: max out-degree %d, plain %d", workers, cres.MaxOutDegree, pres.MaxOutDegree)
		}
		if !reflect.DeepEqual(cres.OutDegrees, pres.OutDegrees) {
			t.Errorf("workers=%d: out-degrees differ from plain orientation", workers)
		}
		pin, perr := LoadInDegrees(plain, pd.NumVertices())
		cin, cerr := LoadInDegrees(comp, pd.NumVertices())
		if perr != nil || cerr != nil || !reflect.DeepEqual(cin, pin) {
			t.Errorf("workers=%d: in-degrees differ from plain orientation (%v, %v)", workers, perr, cerr)
		}
		cd, err := graph.Open(comp)
		if err != nil {
			t.Fatal(err)
		}
		if cd.Format() != graph.FormatCompressed {
			t.Fatalf("workers=%d: opened format %q", workers, cd.Format())
		}
		got, err := cd.LoadCSR()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Adj, want.Adj) {
			t.Errorf("workers=%d: compressed orientation decodes differently from plain", workers)
		}
		cadj, err := os.ReadFile(graph.CAdjPath(comp))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cadj, refCadj) {
			t.Errorf("workers=%d: .cadj bytes differ from converted plain orientation", workers)
		}
	}
}

// TestCompressedStoreRatio: on a heavy-tailed power law (γ = 1.9, 29 edge
// samples per vertex) the compressed oriented store's adjacency — .cadj
// plus .cidx — is at least 2× smaller than the plain .adj.
func TestCompressedStoreRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("orients a 2^15-vertex power law twice")
	}
	g, err := gen.PowerLaw(1<<15, (1<<15)*29, 1.9, 103)
	if err != nil {
		t.Fatal(err)
	}
	src := writeStore(t, g, "src")
	dir := t.TempDir()
	size := func(paths ...string) int64 {
		var total int64
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
		return total
	}
	plain, comp := filepath.Join(dir, "plain"), filepath.Join(dir, "comp")
	if _, err := OrientFormat(src, plain, 2, graph.FormatPlain); err != nil {
		t.Fatal(err)
	}
	if _, err := OrientFormat(src, comp, 2, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	plainBytes := size(graph.AdjPath(plain))
	compBytes := size(graph.CAdjPath(comp), graph.CIdxPath(comp))
	meta, err := graph.ReadMeta(comp)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != graph.FormatCompressed {
		t.Fatalf("oriented store format = %q, want compressed", meta.Format)
	}
	t.Logf("plain %.3f B/edge, compressed %.3f B/edge (%.2fx)", float64(plainBytes)/float64(meta.NumEdges),
		float64(compBytes)/float64(meta.NumEdges), float64(plainBytes)/float64(compBytes))
	if compBytes*2 > plainBytes {
		t.Errorf("compressed store is only %.2fx smaller (%d vs %d bytes), want >= 2x",
			float64(plainBytes)/float64(compBytes), compBytes, plainBytes)
	}
}

// TestRadixSort: the radix sort the long kept lists take agrees with
// slices.Sort for ids below bounds of one to four bytes.
func TestRadixSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bound := range []graph.Vertex{1, 200, 1 << 12, 1 << 20, 1<<31 + 5} {
		for _, n := range []int{radixMin, 300, 5000} {
			a := make([]graph.Vertex, n)
			for i := range a {
				a[i] = graph.Vertex(rng.Int63n(int64(bound)))
			}
			want := slices.Clone(a)
			slices.Sort(want)
			got, _ := radixSort(a, make([]graph.Vertex, n), bound)
			if !slices.Equal(got, want) {
				t.Fatalf("bound %d, %d ids: radix sort disagrees with slices.Sort", bound, n)
			}
		}
	}
}
