package extsort

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// readEdgeFile reads a whole binary edge file.
func readEdgeFile(t *testing.T, path string) []graph.Edge {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]graph.Edge, len(blob)/EdgeBytes)
	for i := range edges {
		edges[i] = graph.Edge{
			U: binary.LittleEndian.Uint32(blob[i*EdgeBytes:]),
			V: binary.LittleEndian.Uint32(blob[i*EdgeBytes+4:]),
		}
	}
	return edges
}

// numVertices is the vertex count an ingest of edges reports: the largest
// id of a non-loop edge + 1.
func numVertices(edges []graph.Edge) int {
	n := 0
	for _, e := range edges {
		if e.U != e.V {
			n = max(n, int(e.U)+1, int(e.V)+1)
		}
	}
	return n
}

// messyEdges is a seeded shuffled edge list with everything the ingest
// cleans up: duplicates, reversed duplicates, self-loops — two of them on
// ids above every edge, which must not count as vertices — and odd ids no
// edge touches.
func messyEdges(seed int64, m int) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, 2*m+2)
	for len(edges) < 2*m {
		e := graph.Edge{U: uint32(rng.Intn(200) * 2), V: uint32(rng.Intn(200) * 2)}
		edges = append(edges, e)
		switch rng.Intn(4) {
		case 0:
			edges = append(edges, e)
		case 1:
			edges = append(edges, graph.Edge{U: e.V, V: e.U})
		}
	}
	edges = append(edges, graph.Edge{U: 1001, V: 1001}, graph.Edge{U: 5000, V: 5000})
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// storeFiles lists the files of a store rooted at base in format.
func storeFiles(base string, format graph.Format) []string {
	files := []string{graph.MetaPath(base), graph.DegPath(base)}
	if format == graph.FormatCompressed {
		return append(files, graph.CAdjPath(base), graph.CIdxPath(base))
	}
	return append(files, graph.AdjPath(base))
}

// checkMatchesInMemory requires the store at got to be byte-identical to
// what graph.FromEdges → WriteCSRFormat writes for the same edges and
// vertex count, with equal metadata.
func checkMatchesInMemory(t *testing.T, got, name string, edges []graph.Edge, format graph.Format) {
	t.Helper()
	g, err := graph.FromEdges(numVertices(edges), edges)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(t.TempDir(), "want")
	if err := graph.WriteCSRFormat(want, name, g, format); err != nil {
		t.Fatal(err)
	}
	gm, err := graph.ReadMeta(got)
	if err != nil {
		t.Fatal(err)
	}
	wm, err := graph.ReadMeta(want)
	if err != nil {
		t.Fatal(err)
	}
	if gm != wm {
		t.Errorf("meta = %+v, want %+v", gm, wm)
	}
	wantFiles := storeFiles(want, format)
	for i, path := range storeFiles(got, format) {
		a, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(wantFiles[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the in-memory build (%d vs %d bytes)", filepath.Base(path), len(a), len(b))
		}
	}
}

// checkNoIntermediates requires that no intermediate file of the ingest
// at base survived it.
func checkNoIntermediates(t *testing.T, base string) {
	t.Helper()
	for _, pattern := range []string{".mirror", ".sorted", ".run*"} {
		matches, err := filepath.Glob(base + pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Errorf("intermediates survived the ingest: %v", matches)
		}
	}
}

// runsSpilled is how many run files loading src at memEdges writes.
func runsSpilled(t *testing.T, src string, memEdges int) int {
	t.Helper()
	s := newSorter(filepath.Join(t.TempDir(), "probe"), memEdges, ioacct.NewCounter(0))
	defer s.removeRuns()
	if err := s.load(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	return s.made
}

func TestEdgeFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "edges.bin")
	want := []graph.Edge{{U: 3, V: 1}, {U: 0, V: 2}, {U: 3, V: 1}}
	if err := WriteEdgeFile(path, want); err != nil {
		t.Fatal(err)
	}
	if got := readEdgeFile(t, path); !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %v, want %v", got, want)
	}
}

// TestSortSmallBudget: at every budget — one record, a few, a third of the
// keys per run, all of them in one run — and in both formats, the ingest of
// a messy input writes exactly the files the in-memory build writes,
// accounts its I/O and leaves no intermediate behind.
func TestSortSmallBudget(t *testing.T) {
	edges := messyEdges(41, 400)
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	keys := 2 * len(edges)
	if got := runsSpilled(t, src, 2*keys/3); got < 3 {
		t.Fatalf("budget 2·keys/3 spilled %d runs, want at least 3", got)
	}
	if got := runsSpilled(t, src, 2*keys); got != 0 {
		t.Fatalf("budget 2·keys spilled %d runs, want none", got)
	}
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		for _, mem := range []int{1, 7, 2 * keys / 3, 2 * keys} {
			base := filepath.Join(dir, string(format))
			c := ioacct.NewCounter(0)
			if err := BuildStoreFormat(nil, src, base, "messy", mem, format, c); err != nil {
				t.Fatalf("%s mem=%d: %v", format, mem, err)
			}
			checkMatchesInMemory(t, base, "messy", edges, format)
			checkNoIntermediates(t, base)
			if io := c.Snapshot(); io.BytesRead == 0 || io.BytesWritten == 0 {
				t.Errorf("%s mem=%d: ingest I/O not accounted: %+v", format, mem, io)
			}
		}
	}
}

// TestSortEmptyAndErrors: on the spilling path and on the one-run path, a
// truncated record fails and leaves no run behind, and an empty file and a
// file of self-loops give the empty store; a zero budget and a missing
// input are errors.
func TestSortEmptyAndErrors(t *testing.T) {
	dir := t.TempDir()
	truncated := filepath.Join(dir, "truncated.bin")
	if err := WriteEdgeFile(truncated, messyEdges(5, 100)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(truncated, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.bin")
	if err := WriteEdgeFile(empty, nil); err != nil {
		t.Fatal(err)
	}
	loops := filepath.Join(dir, "loops.bin")
	if err := WriteEdgeFile(loops, []graph.Edge{{U: 4, V: 4}, {U: 0, V: 0}, {U: 9, V: 9}, {U: 4, V: 4}}); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "store")
	// Runs of two keys spill at every edge; 1<<20 holds them all.
	for _, mem := range []int{2, 1 << 20} {
		err := BuildStoreFormat(nil, truncated, base, "x", mem, graph.FormatPlain, nil)
		if err == nil || !strings.Contains(err.Error(), "truncated edge record") {
			t.Errorf("mem=%d: truncated input gave %v", mem, err)
		}
		checkNoIntermediates(t, base)
		for _, src := range []string{empty, loops} {
			for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
				if err := BuildStoreFormat(nil, src, base, "none", mem, format, nil); err != nil {
					t.Fatalf("mem=%d %s %s: %v", mem, filepath.Base(src), format, err)
				}
				checkMatchesInMemory(t, base, "none", nil, format)
				if m, err := graph.ReadMeta(base); err != nil || m.NumVertices != 0 {
					t.Errorf("mem=%d %s: meta %+v, %v; want no vertices", mem, filepath.Base(src), m, err)
				}
			}
		}
	}
	if err := BuildStoreFormat(nil, empty, base, "none", 0, graph.FormatPlain, nil); err == nil {
		t.Error("want error for zero budget")
	}
	if err := BuildStoreFormat(nil, filepath.Join(dir, "missing"), base, "x", 8, graph.FormatPlain, nil); err == nil {
		t.Error("want error for missing input")
	}
}

func TestBuildStoreMatchesInMemory(t *testing.T) {
	// An unsorted edge file with duplicates and loops must ingest into
	// exactly the graph FromEdges would build.
	rng := rand.New(rand.NewSource(11))
	edges := make([]graph.Edge, 3000)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(rng.Intn(150)), V: uint32(rng.Intn(150))}
	}
	want, err := graph.FromEdges(150, edges)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "store")
	if err := BuildStore(nil, src, base, "ingest", 100, nil); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	// Vertex count can differ if high ids have no edges; compare up to
	// want's size (FromEdges was told n=150 explicitly).
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edges = %d, want %d", got.NumEdges(), want.NumEdges())
	}
	for v := 0; v < got.NumVertices(); v++ {
		w := want.Neighbors(graph.Vertex(v))
		g := got.Neighbors(graph.Vertex(v))
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("vertex %d: %v != %v", v, g, w)
		}
	}
	// And the triangle counts agree end to end.
	if baseline.Forward(got) != baseline.Forward(want) {
		t.Error("ingested graph has different triangle count")
	}
}

func TestBuildStoreEmpty(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, nil); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "store")
	if err := BuildStore(nil, src, base, "empty", 8, nil); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumVertices() != 0 || d.Meta.NumEdges != 0 {
		t.Errorf("empty ingest: %+v", d.Meta)
	}
}

// Property: for any input and budget, the ingest sorts and deduplicates
// into exactly the in-memory build.
func TestSortProperty(t *testing.T) {
	f := func(seed int64, memRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := make([]graph.Edge, rng.Intn(500))
		for i := range edges {
			edges[i] = graph.Edge{U: rng.Uint32() % 1000, V: rng.Uint32() % 1000}
		}
		dir := t.TempDir()
		src := filepath.Join(dir, "in.bin")
		base := filepath.Join(dir, "out")
		if WriteEdgeFile(src, edges) != nil {
			return false
		}
		mem := 1 + int(memRaw%100)
		if BuildStoreFormat(nil, src, base, "prop", mem, graph.FormatPlain, nil) != nil {
			return false
		}
		checkMatchesInMemory(t, base, "prop", edges, graph.FormatPlain)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBuildStoreThenCount(t *testing.T) {
	// Full pipeline: generator -> edge file -> external ingest -> verify
	// against the reference count.
	g, err := gen.RMAT(8, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, g.Edges()); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "store")
	if err := BuildStore(nil, src, base, "rmat8", 512, nil); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	if got := baseline.Forward(csr); got != want {
		t.Errorf("count after ingest = %d, want %d", got, want)
	}
}

// TestBuildStoreFormatCompressed ingests the same messy edge file into both
// store formats and requires logically identical stores: same metadata,
// same degree array, same decoded adjacency.
func TestBuildStoreFormatCompressed(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	edges := make([]graph.Edge, 4000)
	for i := range edges {
		// Leave some vertices untouched so the compressed emit's empty-list
		// gap handling is exercised.
		edges[i] = graph.Edge{U: uint32(rng.Intn(200) * 2), V: uint32(rng.Intn(200) * 2)}
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "plain")
	if err := BuildStore(nil, src, plain, "ingest", 100, nil); err != nil {
		t.Fatal(err)
	}
	comp := filepath.Join(dir, "comp")
	if err := BuildStoreFormat(nil, src, comp, "ingest", 100, graph.FormatCompressed, nil); err != nil {
		t.Fatal(err)
	}
	pd, err := graph.Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	cd, err := graph.Open(comp)
	if err != nil {
		t.Fatal(err)
	}
	if cd.Format() != graph.FormatCompressed {
		t.Fatalf("compressed build opened as %q", cd.Format())
	}
	pm, cm := pd.Meta, cd.Meta
	cm.Format = ""
	if !reflect.DeepEqual(pm, cm) {
		t.Errorf("meta differs: plain %+v, compressed %+v", pm, cm)
	}
	if !reflect.DeepEqual(pd.Degrees, cd.Degrees) {
		t.Error("degree arrays differ between formats")
	}
	want, err := pd.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cd.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Offsets, want.Offsets) || !reflect.DeepEqual(got.Adj, want.Adj) {
		t.Error("adjacency content differs between formats")
	}
}
