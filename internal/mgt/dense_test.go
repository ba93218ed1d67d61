package mgt

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// denseWindow is a window over the lists given, one per vertex from 0 on,
// measured and built.
func denseWindow(lists [][]graph.Vertex) window {
	var w window
	w.vhigh = graph.Vertex(len(lists) - 1)
	w.ind = make([]indEntry, len(lists))
	w.dense = make([]uint32, len(lists))
	for v, l := range lists {
		w.ind[v] = indEntry{off: uint32(len(w.edg)), len: uint32(len(l))}
		w.edg = append(w.edg, l...)
	}
	w.bits = make([]uint64, 1+w.measure(0, w.vhigh+1))
	w.build(0, w.vhigh+1, 1)
	return w
}

// TestDenseBitsets: a list gets a bitset only if it is strictly ascending
// and the bitset, header word included, takes no more bytes than the list;
// a candidate is a hit exactly when the list has it, and one outside the
// bitset's span — below it, past it, or at the top of the id range — is a
// miss, never an index out of range, counting and listing alike.
func TestDenseBitsets(t *testing.T) {
	lists := [][]graph.Vertex{
		{10, 11, 12, 13},                        // a header and one word
		{10, 12, 11, 13},                        // damaged: out of order
		{3, 3, 4, 5},                            // damaged: a duplicate
		{0, 1000, 2000, 3000},                   // 48 words for 4 entries
		{5, 6, 7},                               // too short for two words
		{},                                      // nothing in the window
		{64, 100, 127, 128, 191, 192, 200, 255}, // a header and three words
	}
	w := denseWindow(lists)
	if want := []uint32{1, 0, 0, 0, 0, 0, 3}; !slices.Equal(w.dense, want) {
		t.Fatalf("bitsets at %v, want %v", w.dense, want)
	}
	for v, l := range lists {
		if at := w.dense[v]; at != 0 {
			if words := int(w.bits[at]>>32) + 1; 2*words > len(l) {
				t.Errorf("vertex %d: a bitset of %d words for %d entries", v, words, len(l))
			}
		}
	}
	cand := []graph.Vertex{0, 9, 10, 12, 13, 14, 63, 64, 73, 74, 100, 128, 192, 255, 256, 300, 1 << 31, math.MaxUint32}
	for _, v := range []graph.Vertex{0, 6} {
		var want []graph.Vertex
		for _, c := range cand {
			if slices.Contains(lists[v], c) {
				want = append(want, c)
			}
		}
		at := uint64(w.dense[v])
		hdr := w.bits[at]
		set, base := w.bits[at+1:at+1+hdr>>32], graph.Vertex(hdr)
		r := &dealt{window: w}
		if n := r.testBits(7, v, cand, set, base); n != uint64(len(want)) {
			t.Errorf("vertex %d: %d hits counting, want %d", v, n, len(want))
		}
		var got []graph.Vertex
		r.sink = FuncSink(func(u, pv, x graph.Vertex) {
			if u != 7 || pv != v {
				t.Errorf("vertex %d: listed (%d, %d, %d)", v, u, pv, x)
			}
			got = append(got, x)
		})
		if n := r.testBits(7, v, cand, set, base); n != uint64(len(want)) || !slices.Equal(got, want) {
			t.Errorf("vertex %d: listed %v (%d), want %v", v, got, n, want)
		}
	}
}

// markOnlyListing lists spans under cfg twice — as given, and with no
// bitsets — and fails unless both list the same bytes, with the same
// triangles, pairs, passes and entries loaded over all runners. It returns
// the run's steps and the mark path's.
func markOnlyListing(t *testing.T, label string, d *graph.Disk, spans []balance.Range, cfg DealConfig) (steps, markSteps uint64) {
	t.Helper()
	got, st := dealtListing(t, d, spans, cfg)
	cfg.markOnly = true
	ref, mst := dealtListing(t, d, spans, cfg)
	if !bytes.Equal(got, ref) {
		t.Fatalf("%s: the listing is not the mark path's", label)
	}
	var sum, msum Stats
	for i := range st {
		sum, msum = sum.Add(st[i]), msum.Add(mst[i])
	}
	if sum.Triangles != msum.Triangles || sum.Intersections != msum.Intersections || sum.Passes != msum.Passes || sum.EdgesLoaded != msum.EdgesLoaded {
		t.Fatalf("%s: %+v, the mark path %+v", label, sum, msum)
	}
	return sum.CmpOps, msum.CmpOps
}

// TestDealtDenseMatchesMarkPath: on a ranked store the bitsets change what
// a run costs and nothing it lists — byte for byte the mark path's listing,
// the same pairs, passes and loads — for P ∈ {1, 2, 4} runners building
// and probing concurrently, one window and several, both formats, and an
// arena too small for every round's bitsets; the steps are fewer and repeat
// exactly from run to run.
func TestDealtDenseMatchesMarkPath(t *testing.T) {
	g, err := gen.PowerLaw(3000, 40000, 1.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		total := int(d.Meta.AdjEntries)
		full := []balance.Range{FullRange(d)}
		for _, p := range []int{1, 2, 4} {
			for _, rounds := range []int{1, 5} {
				for _, arena := range []int{0, 64} {
					cfg := DealConfig{Workers: p, MemEdges: total/(rounds*p) + 1, blockEntries: 300, arenaWords: arena, afterBlock: runtime.Gosched}
					label := fmt.Sprintf("%s P=%d rounds=%d arena=%d", d.Format(), p, rounds, arena)
					steps, markSteps := markOnlyListing(t, label, d, full, cfg)
					if steps >= markSteps {
						t.Errorf("%s: %d steps, the mark path %d", label, steps, markSteps)
					}
					var counted []uint64
					for range 2 {
						res, err := RunDealt(context.Background(), d, full, cfg)
						if err != nil {
							t.Fatal(err)
						}
						var sum Stats
						for _, st := range res.Runners {
							sum = sum.Add(st)
						}
						if sum.Triangles != want {
							t.Fatalf("%s: counted %d triangles, baseline %d", label, sum.Triangles, want)
						}
						counted = append(counted, sum.CmpOps)
					}
					if counted[0] != counted[1] {
						t.Errorf("%s: a count took %d steps, then %d", label, counted[0], counted[1])
					}
				}
			}
		}
	}
}

// TestDealtDenseArenaFull: a round whose bitsets do not all fit the arena
// builds those of its first blocks that do and probes the rest on the mark
// path: the steps fall between no arena's and an ample one's.
func TestDealtDenseArenaFull(t *testing.T) {
	g, err := gen.PowerLaw(3000, 40000, 1.9, 8)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	full := []balance.Range{FullRange(d)}
	cfg := DealConfig{Workers: 2, MemEdges: int(d.Meta.AdjEntries)/10 + 1, blockEntries: 300}
	ample, mark := markOnlyListing(t, "ample", d, full, cfg)
	cfg.arenaWords = 64
	tight, _ := markOnlyListing(t, "tight", d, full, cfg)
	if !(ample < tight && tight < mark) {
		t.Errorf("steps: %d with an ample arena, %d with 64 words, %d on the mark path", ample, tight, mark)
	}
}

// damageAdj rewrites d's plain adjacency file through edit.
func damageAdj(t *testing.T, d *graph.Disk, edit func(adj []graph.Vertex)) *graph.Disk {
	t.Helper()
	path := graph.AdjPath(d.Base)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	adj := make([]graph.Vertex, len(raw)/graph.EntrySize)
	graph.DecodePlain(adj, raw)
	edit(adj)
	for i, x := range adj {
		binary.LittleEndian.PutUint32(raw[i*graph.EntrySize:], x)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged, err := graph.Open(d.Base)
	if err != nil {
		t.Fatal(err)
	}
	return damaged
}

// bitsetVertices runs d's full range in one window on r and returns the
// vertices that had a bitset.
func bitsetVertices(t *testing.T, r *Runner, d *graph.Disk) []graph.Vertex {
	t.Helper()
	if _, err := r.RunRange(context.Background(), FullRange(d), nil); err != nil {
		t.Fatal(err)
	}
	var out []graph.Vertex
	for i, at := range r.dl.win.dense {
		if at != 0 {
			out = append(out, r.dl.win.vlow+graph.Vertex(i))
		}
	}
	return out
}

// TestDenseUnsortedListFallsBack: a list damaged out of order gets no
// bitset, and wherever it is read — as a window's Ev or as the N(u) of a
// cone vertex — the run lists exactly what the mark path lists.
func TestDenseUnsortedListFallsBack(t *testing.T) {
	g, err := gen.PowerLaw(600, 8000, 2.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	dense := bitsetVertices(t, newTestRunner(t, d, Config{MemEdges: int(d.Meta.AdjEntries)}), d)
	if len(dense) == 0 {
		t.Fatal("no list has a bitset")
	}
	v := dense[len(dense)/2]
	d = damageAdj(t, d, func(adj []graph.Vertex) {
		i := d.Offsets[v]
		adj[i], adj[i+1] = adj[i+1], adj[i]
	})
	r := newTestRunner(t, d, Config{MemEdges: int(d.Meta.AdjEntries)})
	if got := bitsetVertices(t, r, d); slices.Contains(got, v) || len(got) != len(dense)-1 {
		t.Fatalf("after damaging vertex %d's list, bitsets for %d vertices (it among them: %v), before %d", v, len(got), slices.Contains(got, v), len(dense))
	}
	total := int(d.Meta.AdjEntries)
	for _, p := range []int{1, 3} {
		for _, rounds := range []int{1, 4} {
			markOnlyListing(t, fmt.Sprintf("P=%d rounds=%d", p, rounds), d, []balance.Range{FullRange(d)},
				DealConfig{Workers: p, MemEdges: total/(rounds*p) + 1, blockEntries: 200})
		}
	}
}

// TestDenseBadVertexIDFails: an N(u) naming an id the store does not have
// fails the run with the vertex-id error even when every pivot source of
// u's cone has a bitset — so that nothing is stamped — whether u's list is
// served from the window or read from the store.
func TestDenseBadVertexIDFails(t *testing.T) {
	const n = 12
	g, err := gen.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	// Ranked, so vertex v's list is 0, 1, …, v−1: lists of four or more
	// entries get a bitset, and a window from vertex 4 on has no other.
	dense := bitsetVertices(t, newTestRunner(t, d, Config{MemEdges: int(d.Meta.AdjEntries)}), d)
	if want := []graph.Vertex{4, 5, 6, 7, 8, 9, 10, 11}; !slices.Equal(dense, want) {
		t.Fatalf("bitsets for %v, want %v", dense, want)
	}
	u := graph.Vertex(n - 1)
	d = damageAdj(t, d, func(adj []graph.Vertex) { adj[d.Offsets[u+1]-1] = n + 5 })
	for _, rng := range []balance.Range{
		{Lo: d.Offsets[4], Hi: d.Meta.AdjEntries}, // u's list in the window
		{Lo: d.Offsets[4], Hi: d.Offsets[u]},      // u's list read from the store
	} {
		r := newTestRunner(t, d, Config{MemEdges: int(d.Meta.AdjEntries)})
		_, err := r.RunRange(context.Background(), rng, nil)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("list of vertex %d names a vertex id ≥ %d", u, n)) {
			t.Errorf("range %v: %v, want the vertex-id error for vertex %d", rng, err, u)
		}
		if one := r.dl.runners[0]; one.epoch != 0 {
			t.Errorf("range %v: %d cone vertices stamped", rng, one.epoch)
		}
	}
}
