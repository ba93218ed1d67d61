package mgt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/scan"
)

type triple [3]graph.Vertex

// recordRange runs one range on r and returns the emitted sequence.
func recordRange(t *testing.T, r *Runner, rng balance.Range) ([]triple, Stats) {
	t.Helper()
	var out []triple
	st, err := r.RunRange(context.Background(), rng, FuncSink(func(u, v, w graph.Vertex) { out = append(out, triple{u, v, w}) }))
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

// windowOrder is the listing order every cone routine must reproduce,
// written from the definition alone: window by window over the range, cone
// vertices in scan order, pivot sources v ascending, closing vertices w
// ascending — small and large cone vertices alike. steps is what the
// default routine may spend on it: per cone vertex with a pivot source in
// the window (and per hub regardless), one stamp per entry of N(u) and one
// probe per entry of every in-window Ev.
func windowOrder(csr *graph.CSR, rng balance.Range, mem int) (out []triple, steps uint64) {
	for pos := rng.Lo; pos < rng.Hi; pos += uint64(mem) {
		end := min(pos+uint64(mem), rng.Hi)
		for u := 0; u < csr.NumVertices(); u++ {
			nu := csr.Neighbors(graph.Vertex(u))
			var probes uint64
			for _, v := range nu {
				lo, hi := max(csr.Offsets[v], pos), min(csr.Offsets[v+1], end)
				for i := lo; i < hi; i++ {
					probes++
					if _, ok := slices.BinarySearch(nu, csr.Adj[i]); ok {
						out = append(out, triple{graph.Vertex(u), v, csr.Adj[i]})
					}
				}
			}
			if len(nu) > mem || (len(nu) >= 2 && probes > 0) {
				steps += uint64(len(nu)) + probes
			}
		}
	}
	return out, steps
}

// TestConeOrderAndCost pins the runner's own cone routine against the
// paper's merge and against the order's definition: identical per-runner
// triangle sequences on the plain pass and the header-pruned compressed
// pass, for one window, 48 windows and windows one entry short of the
// largest out-list (the hub arrives in segments), counting and listing —
// and its step count is exactly stamps + probes.
func TestConeOrderAndCost(t *testing.T) {
	g, err := gen.PowerLaw(1200, 12000, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain := orientedStore(t, g)
	csr, err := plain.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	total := plain.Meta.AdjEntries
	ranges := []balance.Range{{Lo: 0, Hi: total / 4}, {Lo: total / 4, Hi: total / 2}, {Lo: total / 2, Hi: total}}
	baselineCount := baseline.Forward(g)
	if baselineCount == 0 {
		t.Fatal("graph has no triangles")
	}
	for _, d := range []*graph.Disk{plain, compressedStore(t, g)} {
		for _, mem := range []int{int(total), int(total) / 48, int(d.Meta.MaxOutDegree) - 1} {
			open := func(k KernelKind) *Runner {
				r, err := NewRunner(d, Config{MemEdges: mem, Kernel: k})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { r.Close() })
				return r
			}
			auto, merge := open(KernelAuto), open(KernelMerge)
			var found, large uint64
			for i, rng := range ranges {
				label := func() string { return fmt.Sprintf("%s M=%d runner %d", d.Format(), mem, i) }
				want, steps := windowOrder(csr, rng, mem)
				got, ast := recordRange(t, auto, rng)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: default cone emitted %d triangles, the definition gives %d, or in another order", label(), len(got), len(want))
				}
				ref, mst := recordRange(t, merge, rng)
				if !slices.Equal(ref, want) {
					t.Fatalf("%s: merge emitted %d triangles, the definition gives %d, or in another order", label(), len(ref), len(want))
				}
				cst, err := auto.RunRange(context.Background(), rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cst.Triangles != uint64(len(want)) || cst.CmpOps != ast.CmpOps || cst.Intersections != ast.Intersections {
					t.Errorf("%s: counting run %+v disagrees with the listing run %+v", label(), cst, ast)
				}
				if ast.Intersections != mst.Intersections || ast.Passes != mst.Passes || ast.LargeVertices != mst.LargeVertices {
					t.Errorf("%s: default %+v and merge %+v intersected different pairs", label(), ast, mst)
				}
				if ast.CmpOps != steps {
					t.Errorf("%s: default took %d steps, stamps + probes are %d", label(), ast.CmpOps, steps)
				}
				if ast.IO.BytesRead != mst.IO.BytesRead {
					t.Errorf("%s: default read %d bytes, merge %d", label(), ast.IO.BytesRead, mst.IO.BytesRead)
				}
				found += ast.Triangles
				large += ast.LargeVertices
			}
			if mem < int(d.Meta.MaxOutDegree) && large == 0 {
				t.Errorf("%s M=%d: the hub never arrived in segments", d.Format(), mem)
			}
			if found != baselineCount {
				t.Errorf("%s M=%d: %d triangles, baseline %d", d.Format(), mem, found, baselineCount)
			}
		}
	}
}

// TestEpochWrap drives a runner across the epoch's wrap-around, over small
// cone vertices and hubs that arrive in segments, with the mark array full
// of the stamp the restarted epoch reuses first: were the array not cleared
// at the wrap, that cone vertex would find all of V marked. The wrap is
// placed at points spread over the whole run.
func TestEpochWrap(t *testing.T) {
	g, err := gen.ErdosRenyi(200, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	csr, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	mem := int(d.Meta.MaxOutDegree) - 1
	rng := balance.Range{Lo: d.Meta.AdjEntries / 2, Hi: d.Meta.AdjEntries/2 + uint64(3*mem)}
	want, _ := windowOrder(csr, rng, mem)
	r, err := NewRunner(d, Config{MemEdges: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, _ := recordRange(t, r, rng); !slices.Equal(got, want) {
		t.Fatalf("first run: %d triangles, want %d", len(got), len(want))
	}
	cones := r.epoch
	if cones < 48 {
		t.Fatalf("the run marks only %d cone vertices", cones)
	}
	for before := uint32(0); before < cones; before += cones / 48 {
		for i := range r.mark {
			r.mark[i] = 1
		}
		r.epoch = math.MaxUint32 - before
		got, st := recordRange(t, r, rng)
		if r.epoch != cones-before {
			t.Fatalf("wrap before cone vertex %d: epoch ends at %d, want %d", before, r.epoch, cones-before)
		}
		if st.LargeVertices == 0 {
			t.Fatal("no large vertex in the run")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("wrap before cone vertex %d: %d triangles, want %d — stale stamps were read as fresh", before, len(got), len(want))
		}
	}
}

// sliceHandle serves an oriented CSR from memory and reuses its one scan
// object, so what AllocsPerRun sees below is the runner's own doing.
type sliceHandle struct {
	csr  *graph.CSR
	next int
}

func (h *sliceHandle) Scan(int) (scan.Scan, error) { h.next = 0; return h, nil }
func (h *sliceHandle) ReadEntries(dst []graph.Vertex, pos uint64) error {
	copy(dst, h.csr.Adj[pos:])
	return nil
}
func (h *sliceHandle) Close() error { return nil }
func (h *sliceHandle) Err() error   { return nil }
func (h *sliceHandle) Next() (graph.Vertex, []graph.Vertex, bool) {
	if h.next >= h.csr.NumVertices() {
		return 0, nil, false
	}
	u := graph.Vertex(h.next)
	h.next++
	return u, h.csr.Neighbors(u), true
}

// TestRunRangeZeroAlloc: a warmed runner counts a multi-window range on the
// default path without allocating.
func TestRunRangeZeroAlloc(t *testing.T) {
	g, err := gen.PowerLaw(2000, 20000, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	csr, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(d, Config{MemEdges: int(d.Meta.AdjEntries)/3 + 1, Source: &sliceHandle{csr: csr}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, want := context.Background(), baseline.Forward(g)
	run := func() {
		st, err := r.RunRange(ctx, FullRange(d), nil)
		if err != nil || st.Passes != 3 || st.Triangles != want {
			t.Fatalf("run: %+v, %v", st, err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("warmed RunRange allocated %.0f times per run, want 0", allocs)
	}
}

// TestLargeVertexBounded: a hub whose out-list exceeds the window — down to
// a mis-sized window of one entry — is counted exactly, with runner-owned
// memory bounded by the window and the vertex count rather than by the
// hub's degree, and without reading a byte more than small vertices cost:
// one scan per pass plus the window loads.
func TestLargeVertexBounded(t *testing.T) {
	// Vertex 0 of the clique-plus-periphery graph points at every other
	// clique member: d*max = 59.
	var edges []graph.Edge
	for u := uint32(0); u < 60; u++ {
		for v := u + 1; v < 60; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		edges = append(edges, graph.Edge{U: u, V: 60 + u}, graph.Edge{U: 60 + u, V: 120 + u})
	}
	g, err := graph.FromEdges(180, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		n := d.NumVertices()
		for _, mem := range []int{1, 7, int(d.Meta.MaxOutDegree) - 1} {
			r, err := NewRunner(d, Config{MemEdges: mem})
			if err != nil {
				t.Fatal(err)
			}
			st, err := r.RunRange(context.Background(), FullRange(d), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Triangles != want || st.LargeVertices == 0 {
				t.Errorf("%s M=%d: %d triangles (want %d), %d large vertices", d.Format(), mem, st.Triangles, want, st.LargeVertices)
			}
			// ind holds two words per window vertex.
			owned := cap(r.edg) + 2*cap(r.ind) + cap(r.nmp) + cap(r.mark) + cap(r.listBuf) + cap(r.segScratch)
			if bound := 3*(mem+n) + graph.SegmentEntries; owned > bound {
				t.Errorf("%s M=%d: runner owns %d entries, want ≤ 3·(M+n)+%d = %d", d.Format(), mem, owned, graph.SegmentEntries, bound)
			}
			if d.Format() == graph.FormatPlain {
				if small := int64(st.Passes)*d.AdjBytes() + int64(st.EdgesLoaded)*graph.EntrySize; st.IO.BytesRead != small {
					t.Errorf("M=%d: read %d bytes, small vertices alone would cost %d — a hub's list was read twice", mem, st.IO.BytesRead, small)
				}
			}
			r.Close()
		}
	}
}

// TestDamagedVertexIDFails: an adjacency entry beyond the degree array must
// fail the run, not index the mark array out of range.
func TestDamagedVertexIDFails(t *testing.T) {
	g, err := gen.Complete(12)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	csr, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	for _, mem := range []int{int(d.Meta.AdjEntries), 4} {
		bad := &graph.CSR{Offsets: csr.Offsets, Adj: slices.Clone(csr.Adj)}
		bad.Adj[len(bad.Adj)/2] = graph.Vertex(d.NumVertices()) + 5
		r, err := NewRunner(d, Config{MemEdges: mem, Source: &sliceHandle{csr: bad}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.RunRange(context.Background(), FullRange(d), nil); err == nil {
			t.Errorf("M=%d: a vertex id ≥ n went unnoticed", mem)
		}
	}
}

// TestParseKernel: two names, and an error naming them for anything else —
// the routines an older peer or a stale flag may still ask for included.
func TestParseKernel(t *testing.T) {
	for in, want := range map[string]KernelKind{"": KernelAuto, "auto": KernelAuto, "merge": KernelMerge} {
		if got, err := ParseKernel(in); err != nil || got != want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"gallop", "adaptive", "compressed", "cover", "simd", "Merge", " auto"} {
		_, err := ParseKernel(in)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", in)) || !strings.Contains(err.Error(), "auto, merge") {
			t.Errorf("ParseKernel(%q) = %v; want an error naming it and listing auto, merge", in, err)
		}
	}
	// The default is one value everywhere: empty in Options and on the wire
	// (a peer that predates "auto" must still parse it), "auto" in reports.
	if KernelAuto != "" || KernelAuto.String() != "auto" || KernelMerge.String() != "merge" {
		t.Errorf("KernelAuto = %q prints %q; want the empty string printing auto", string(KernelAuto), KernelAuto)
	}
}

// sortedSet builds a random strictly increasing vertex list of n ids below
// universe.
func sortedSet(rng *rand.Rand, n, universe int) []graph.Vertex {
	out := make([]graph.Vertex, 0, n)
	for _, v := range rng.Perm(universe)[:n] {
		out = append(out, graph.Vertex(v))
	}
	slices.Sort(out)
	return out
}

// mergeOf runs KernelMerge's routine on one pair, listing and counting.
func mergeOf(t *testing.T, a, b []graph.Vertex) ([]graph.Vertex, Stats) {
	t.Helper()
	var got []graph.Vertex
	r := &Runner{sink: FuncSink(func(u, v, w graph.Vertex) {
		if u != 7 || v != 9 {
			t.Fatalf("merge closed (%d, %d, %d), want pivot pair (7, 9)", u, v, w)
		}
		got = append(got, w)
	})}
	r.intersect(7, 9, a, b)
	c := &Runner{}
	c.intersect(7, 9, a, b)
	if c.stats != r.stats {
		t.Fatalf("counting merge %+v, listing merge %+v", c.stats, r.stats)
	}
	return got, r.stats
}

// TestMergeEmptyOperands: an empty side ends the merge before its first step.
func TestMergeEmptyOperands(t *testing.T) {
	a := []graph.Vertex{1, 2, 3}
	for _, pair := range [][2][]graph.Vertex{{nil, a}, {a, nil}, {nil, nil}} {
		got, st := mergeOf(t, pair[0], pair[1])
		if got != nil || st != (Stats{Intersections: 1}) {
			t.Errorf("merge of %v and %v: emitted %v, stats %+v", pair[0], pair[1], got, st)
		}
	}
}

// TestMergeMatchesDefinition holds the merge to the intersection's definition
// over random pairs of wildly different lengths, disjoint ones included: the
// common ids ascending, and one step per id either side passes before the
// shorter-reaching side runs out, a match being one step for two.
func TestMergeMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		la, lb := rng.Intn(120), rng.Intn(120)
		switch trial % 4 { // force skew in both directions
		case 1:
			la = rng.Intn(5)
		case 2:
			lb = rng.Intn(5)
		case 3:
			la, lb = rng.Intn(3), 60+rng.Intn(60)
		}
		universe := 1 + rng.Intn(200)
		a, b := sortedSet(rng, min(la, universe), universe), sortedSet(rng, min(lb, universe), universe)
		var want []graph.Vertex
		var steps uint64
		if len(a) > 0 && len(b) > 0 {
			reach := min(a[len(a)-1], b[len(b)-1])
			for _, x := range a {
				if _, ok := slices.BinarySearch(b, x); ok {
					want = append(want, x)
				}
				if x <= reach {
					steps++
				}
			}
			for _, y := range b {
				if y <= reach {
					steps++
				}
			}
			steps -= uint64(len(want))
		}
		got, st := mergeOf(t, a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: merge emitted %v, want %v (a=%v b=%v)", trial, got, want, a, b)
		}
		if st.CmpOps != steps || st.Triangles != uint64(len(want)) || st.Intersections != 1 {
			t.Fatalf("trial %d: stats %+v, want %d steps and %d triangles", trial, st, steps, len(want))
		}
	}
}
