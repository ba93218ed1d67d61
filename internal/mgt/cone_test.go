package mgt

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
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
// the window (and per hub a round scans regardless — on a ranked store, one
// from the window's first vertex on), one step per entry of N(u), stamped or
// checked, and per pivot source v at position j of N(u) either j bit tests
// — on a ranked store, when j ≤ |Ev| and the window's Ev has a bitset: it is
// ascending and a header word plus a bit per id of its span take at most
// half a word per entry — or one probe per entry of Ev. A hub that arrives
// in pieces always probes.
func windowOrder(csr *graph.CSR, rng balance.Range, mem int, ranked bool) (out []triple, steps uint64) {
	for pos := rng.Lo; pos < rng.Hi; pos += uint64(mem) {
		end := min(pos+uint64(mem), rng.Hi)
		ev := func(v graph.Vertex) []graph.Vertex {
			lo := max(csr.Offsets[v], pos)
			return csr.Adj[lo:max(min(csr.Offsets[v+1], end), lo)]
		}
		dense := func(v graph.Vertex) bool {
			e := ev(v)
			return ranked && len(e) > 0 && slices.IsSorted(e) && 2*(1+(uint64(e[len(e)-1]-e[0])+64)/64) <= uint64(len(e))
		}
		first := 0
		if ranked {
			first = sort.Search(csr.NumVertices(), func(v int) bool { return csr.Offsets[v+1] > pos })
		}
		for u := first; u < csr.NumVertices(); u++ {
			nu := csr.Neighbors(graph.Vertex(u))
			var probes, tests uint64
			for j, v := range nu {
				e := ev(v)
				for _, w := range e {
					if _, ok := slices.BinarySearch(nu, w); ok {
						out = append(out, triple{graph.Vertex(u), v, w})
					}
				}
				probes += uint64(len(e))
				if dense(v) && j <= len(e) {
					tests += uint64(j)
				} else {
					tests += uint64(len(e))
				}
			}
			switch {
			case len(nu) > mem:
				steps += uint64(len(nu)) + probes
			case len(nu) >= 2 && probes > 0:
				steps += uint64(len(nu)) + tests
			}
		}
	}
	return out, steps
}

// TestConeOrderAndCost pins the runner's cone routine against the order's
// definition: identical per-runner triangle sequences on the plain pass and
// the header-pruned compressed pass, for one window, 48 windows and windows
// one entry short of the largest out-list (the hub arrives in segments),
// counting and listing —
// and its step count is exactly stamps (or checks) + probes + bit tests.
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
			r := newTestRunner(t, d, Config{MemEdges: mem})
			var found, large uint64
			for i, rng := range ranges {
				label := func() string { return fmt.Sprintf("%s M=%d runner %d", d.Format(), mem, i) }
				want, steps := windowOrder(csr, rng, mem, d.Meta.Ranked)
				got, ast := recordRange(t, r, rng)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: the cone routine emitted %d triangles, the definition gives %d, or in another order", label(), len(got), len(want))
				}
				cst, err := r.RunRange(context.Background(), rng, nil)
				if err != nil {
					t.Fatal(err)
				}
				if cst.Triangles != uint64(len(want)) || cst.CmpOps != ast.CmpOps || cst.Intersections != ast.Intersections {
					t.Errorf("%s: counting run %+v disagrees with the listing run %+v", label(), cst, ast)
				}
				if ast.CmpOps != steps {
					t.Errorf("%s: the cone routine took %d steps, stamps + probes + bit tests are %d", label(), ast.CmpOps, steps)
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
	// At the front of the ranked store, where every round scans every list.
	rng := balance.Range{Lo: 0, Hi: uint64(3 * mem)}
	want, _ := windowOrder(csr, rng, mem, d.Meta.Ranked)
	r := newTestRunner(t, d, Config{MemEdges: mem})
	one := r.dl.runners[0]
	if got, _ := recordRange(t, r, rng); !slices.Equal(got, want) {
		t.Fatalf("first run: %d triangles, want %d", len(got), len(want))
	}
	cones := one.epoch
	if cones < 48 {
		t.Fatalf("the run marks only %d cone vertices", cones)
	}
	for before := uint32(0); before < cones; before += cones / 48 {
		for i := range one.mark {
			one.mark[i] = 1
		}
		one.epoch = math.MaxUint32 - before
		got, st := recordRange(t, r, rng)
		if one.epoch != cones-before {
			t.Fatalf("wrap before cone vertex %d: epoch ends at %d, want %d", before, one.epoch, cones-before)
		}
		if st.LargeVertices == 0 {
			t.Fatal("no large vertex in the run")
		}
		if !slices.Equal(got, want) {
			t.Fatalf("wrap before cone vertex %d: %d triangles, want %d — stale stamps were read as fresh", before, len(got), len(want))
		}
	}
}

// newTestRunner opens a Runner on d that the test closes.
func newTestRunner(t *testing.T, d *graph.Disk, cfg Config) *Runner {
	t.Helper()
	r, err := NewRunner(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRunRangeZeroAlloc: a warmed runner counts a multi-window range on
// either store format without allocating.
func TestRunRangeZeroAlloc(t *testing.T) {
	g, err := gen.PowerLaw(2000, 20000, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		r := newTestRunner(t, d, Config{MemEdges: int(d.Meta.AdjEntries)/3 + 1})
		ctx := context.Background()
		run := func() {
			st, err := r.RunRange(ctx, FullRange(d), nil)
			if err != nil || st.Passes != 3 || st.Triangles != want {
				t.Fatalf("%s run: %+v, %v", d.Format(), st, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: warmed RunRange allocated %.0f times per run, want 0", d.Format(), allocs)
		}
	}
}

// oneReaderBytes is what a one-runner run over rng with windows of mem
// entries reads (TestDealtIOExact at P = 1): per window, every list from
// the window's first vertex on (on a ranked store; every list on any other)
// that the window does not hold whole, plus the window's load — its entries
// on a plain store, the encodings of the vertices holding them on a
// compressed one.
func oneReaderBytes(d *graph.Disk, rng balance.Range, mem int) (scans, loads int64) {
	listBytes := func(a, z graph.Vertex) int64 {
		if d.ByteOffs != nil {
			return int64(d.ByteOffs[z] - d.ByteOffs[a])
		}
		return int64(d.Offsets[z]-d.Offsets[a]) * graph.EntrySize
	}
	for lo := rng.Lo; lo < rng.Hi; lo += uint64(mem) {
		hi := min(lo+uint64(mem), rng.Hi)
		if d.ByteOffs != nil {
			loads += listBytes(d.VertexAt(lo), d.VertexAt(hi-1)+1)
		} else {
			loads += int64(hi-lo) * graph.EntrySize
		}
		first := graph.Vertex(0)
		if d.Meta.Ranked {
			first = d.VertexAt(lo)
		}
		scans += listBytes(first, graph.Vertex(d.NumVertices()))
		for v := first; int(v) < d.NumVertices(); v++ {
			if d.Offsets[v] >= lo && d.Offsets[v+1] <= hi {
				scans -= listBytes(v, v+1)
			}
		}
	}
	return scans, loads
}

// TestLargeVertexBounded: a hub whose out-list exceeds the window — down to
// a mis-sized window of one entry — is counted exactly, with runner-owned
// memory bounded by the window, a block and the vertex count rather than by
// the hub's degree, and without reading a byte more than small vertices
// cost: the one-reader volume, every list once per window less the lists
// the window holds, plus the window loads.
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
			r := newTestRunner(t, d, Config{MemEdges: mem})
			st, err := r.RunRange(context.Background(), FullRange(d), nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.Triangles != want || st.LargeVertices == 0 {
				t.Errorf("%s M=%d: %d triangles (want %d), %d large vertices", d.Format(), mem, st.Triangles, want, st.LargeVertices)
			}
			// ind holds two words per window vertex; raw is bytes.
			one := r.dl.runners[0]
			owned := cap(r.dl.win.edg) + 2*cap(r.dl.win.ind) + cap(one.nmp) + cap(one.mark) + cap(one.vals) + cap(one.raw)/graph.EntrySize + cap(one.segScratch)
			if bound := 3*(mem+n) + BlockEntries + graph.SegmentEntries; owned > bound {
				t.Errorf("%s M=%d: runner owns %d entries, want ≤ 3·(M+n)+BlockEntries+%d = %d", d.Format(), mem, owned, graph.SegmentEntries, bound)
			}
			if scans, loads := oneReaderBytes(d, FullRange(d), mem); st.IO.BytesRead != scans+loads {
				t.Errorf("%s M=%d: read %d bytes, small vertices alone would cost %d — a hub's list was read twice", d.Format(), mem, st.IO.BytesRead, scans+loads)
			}
		}
	}
}

// TestDamagedVertexIDFails: an adjacency entry beyond the degree array must
// fail the run, not index the mark array out of range — whether the list
// naming it is read from the store or served from the window.
func TestDamagedVertexIDFails(t *testing.T) {
	g, err := gen.Complete(12)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	raw, err := os.ReadFile(graph.AdjPath(d.Base))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[len(raw)/2/graph.EntrySize*graph.EntrySize:], uint32(d.NumVertices())+5)
	if err := os.WriteFile(graph.AdjPath(d.Base), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mem := range []int{int(d.Meta.AdjEntries), 4} {
		if _, err := runOnce(d, Config{MemEdges: mem}, FullRange(d), nil); err == nil {
			t.Errorf("M=%d: a vertex id ≥ n went unnoticed", mem)
		}
	}
}

// TestCheckKernel: the one cone routine's two names pass, and any other name
// — one a removed routine answered to, or a near miss — is an error naming
// it.
func TestCheckKernel(t *testing.T) {
	for _, in := range []string{"", "auto"} {
		if err := CheckKernel(in); err != nil {
			t.Errorf("CheckKernel(%q) = %v", in, err)
		}
	}
	for _, in := range []string{"merge", "gallop", "adaptive", "compressed", "cover", "simd", "Auto", " auto"} {
		if err := CheckKernel(in); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", in)) {
			t.Errorf("CheckKernel(%q) = %v; want an error naming it", in, err)
		}
	}
}

// TestPrunedPassMatchesDecodingPass: on a compressed store the cone blocks
// take the header-pruned pass — lists the window cannot reach are rejected
// on their segment headers, never decoded — and every range of a
// multi-window run lists exactly the triangle sequence the same graph's
// plain store lists, with the same comparisons. Window sizes cover many small
// windows, the large-vertex path (M below the maximum out-degree) and the
// single window. The same two runners then run the ranges again, last first:
// the lists a run found dead (ending below one of its windows) may reach the
// windows of an earlier range, so a Runner must forget them between runs.
func TestPrunedPassMatchesDecodingPass(t *testing.T) {
	g, err := gen.PowerLaw(1500, 15000, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain, comp := orientedStore(t, g), compressedStore(t, g)
	total := comp.Meta.AdjEntries
	ranges := []balance.Range{{Lo: 0, Hi: total / 5}, {Lo: total / 5, Hi: total / 2}, {Lo: total / 2, Hi: total}}
	for _, mem := range []int{int(comp.Meta.MaxOutDegree) / 2, int(total) / 40, int(total)} {
		pruned, decoding := newTestRunner(t, comp, Config{MemEdges: mem}), newTestRunner(t, plain, Config{MemEdges: mem})
		var skipped uint64
		for _, i := range []int{0, 1, 2, 2, 1, 0} {
			rng := ranges[i]
			got, gst := recordRange(t, pruned, rng)
			want, wst := recordRange(t, decoding, rng)
			if len(want) == 0 {
				t.Fatalf("mem=%d runner %d: the plain store lists no triangles", mem, i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("mem=%d runner %d: pruned pass emitted %d triangles, the plain store %d, or in another order", mem, i, len(got), len(want))
			}
			if gst.CmpOps != wst.CmpOps || gst.Intersections != wst.Intersections || gst.Passes != wst.Passes || gst.LargeVertices != wst.LargeVertices {
				t.Errorf("mem=%d runner %d: pruned pass stats %+v, plain store %+v", mem, i, gst, wst)
			}
			skipped += gst.SegmentsSkipped
		}
		if mem < int(total)/4 && skipped == 0 {
			t.Errorf("mem=%d: no segment was rejected on its header", mem)
		}
	}
}

// TestPrunedPassReportsCorruptHeader: a list the window cannot reach is
// rejected on its headers, never decoded — but a damaged header among them
// must still fail the run, not pass for "out of range".
func TestPrunedPassReportsCorruptHeader(t *testing.T) {
	g, err := gen.PowerLaw(1500, 15000, 1.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	d := compressedStore(t, g)
	mem := int(d.Meta.AdjEntries) / 40
	first := balance.Range{Lo: 0, Hi: uint64(mem)}
	vhigh := d.VertexAt(first.Hi - 1)

	// A list of at least two entries that lies wholly beyond the first
	// window's vertex span: the pruned pass skips it there.
	sc, err := d.NewScanner(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for {
		u, list, ok := sc.Next()
		if !ok {
			break
		}
		if len(list) >= 2 && list[0] > vhigh {
			victim = int(u)
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if victim < 0 {
		t.Fatal("no list lies beyond the first window")
	}
	if st, err := runOnce(d, Config{MemEdges: mem}, first, nil); err != nil || st.Passes != 1 {
		t.Fatalf("intact store: %d passes, err %v", st.Passes, err)
	}

	// Break the kind byte of the victim's first segment header.
	const dataStart = 4 // the .cadj magic
	f, err := os.OpenFile(graph.CAdjPath(d.Base), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, dataStart+int64(d.ByteOffs[victim])); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(d, Config{MemEdges: mem}, first, nil); err == nil {
		t.Fatalf("the damaged header of vertex %d's list was skipped as out of the window", victim)
	}
}
