package mgt

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
)

// dealtListing runs a cooperative listing into an ordered writer over a
// buffer and returns what it wrote.
func dealtListing(t *testing.T, d *graph.Disk, spans []balance.Range, cfg DealConfig) ([]byte, []Stats) {
	t.Helper()
	var out bytes.Buffer
	cfg.Listing = NewListing(&out, cfg.Workers, nil)
	res, err := RunDealt(context.Background(), d, spans, cfg)
	if cerr := cfg.Listing.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var tris uint64
	for _, st := range res.Runners {
		tris += st.Triangles
	}
	if got, want := uint64(out.Len()), 12*tris; got != want {
		t.Fatalf("the listing is %d bytes for %d triangles", got, tris)
	}
	return out.Bytes(), res.Runners
}

// countEqualsListing fails unless counting and listing d at cfg run the same
// scan, each dealt in its own cut: the same steps, the count dealing the
// blocks of BlockEntries (or cfg's) and the listing those of ListBlockEntries
// a round, where that is finer — their chunk spans' blocks attrs, summed,
// are the blocks each cut has from every round's first scanned vertex on.
func countEqualsListing(t *testing.T, label string, d *graph.Disk, cfg DealConfig) {
	t.Helper()
	run := func(listing bool) (steps uint64, blocks int64) {
		tr := obs.NewTrace(0)
		ctx := obs.ContextWithCursor(context.Background(), obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
		cfg := cfg
		if listing {
			cfg.Listing = NewListing(io.Discard, cfg.Workers, nil)
		}
		res, err := RunDealt(ctx, d, []balance.Range{FullRange(d)}, cfg)
		if listing {
			if cerr := cfg.Listing.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, st := range res.Runners {
			steps += st.CmpOps
		}
		for _, sp := range tr.Spans() {
			if b, _ := spanAttr(sp, "blocks"); sp.Name == obs.SpanChunk {
				blocks += b
			}
		}
		return steps, blocks
	}
	win := min(uint64(cfg.Workers)*uint64(cfg.MemEdges), d.Meta.AdjEntries)
	entries, bytes := min(uint64(BlockEntries), win), uint64(BlockEntries*graph.EntrySize)
	if cfg.blockEntries > 0 {
		entries, bytes = uint64(cfg.blockEntries), uint64(cfg.blockEntries)*graph.EntrySize
	}
	countCuts, listCuts := cutBlocks(d, entries, bytes), cutBlocks(d, entries, bytes)
	if e := ListBlockEntries * ((d.Meta.AdjEntries + win - 1) / win); e < entries {
		listCuts = cutBlocks(d, e, e*graph.EntrySize)
	}
	cSteps, cBlocks := run(false)
	lSteps, lBlocks := run(true)
	if cSteps != lSteps {
		t.Errorf("%s: counting took %d steps, listing %d", label, cSteps, lSteps)
	}
	if want := roundBlocks(d, countCuts, win); cBlocks != want || want == 0 {
		t.Errorf("%s: counting dealt %d blocks, its cut has %d", label, cBlocks, want)
	}
	if want := roundBlocks(d, listCuts, win); lBlocks != want || want == 0 {
		t.Errorf("%s: listing dealt %d blocks, its cut has %d", label, lBlocks, want)
	}
}

// roundBlocks is how many blocks of cuts the rounds of a run over all of d,
// with a window of win entries, deal: on a ranked store each round those from
// the block of its window's first vertex on, on any other all of them.
func roundBlocks(d *graph.Disk, cuts []graph.Vertex, win uint64) int64 {
	var n int64
	for lo := uint64(0); lo < d.Meta.AdjEntries; lo += win {
		first := 0
		if d.Meta.Ranked {
			first = blockOf(cuts, d.VertexAt(lo))
		}
		n += int64(len(cuts) - 1 - first)
	}
	return n
}

// spanAttr returns sp's attr key, and whether sp has it.
func spanAttr(sp obs.Span, key string) (int64, bool) {
	for _, a := range sp.Attrs[:sp.NAttr] {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// definedListing is the reference: the listing order written from its
// definition alone (windowOrder) — window by window over rng, cone vertices
// in id order, pivot sources and closing vertices ascending — as bytes.
func definedListing(t *testing.T, d *graph.Disk, rng balance.Range, mem int) []byte {
	t.Helper()
	csr, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	tris, _ := windowOrder(csr, rng, mem, d.Meta.Ranked)
	out := make([]byte, 0, 12*len(tris))
	for _, tri := range tris {
		for _, v := range tri {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
	}
	return out
}

func sortedTriples(t *testing.T, raw []byte) []triple {
	t.Helper()
	tris, err := ReadTriangles(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]triple, len(tris))
	for i, tri := range tris {
		out[i] = tri
	}
	slices.SortFunc(out, func(a, b triple) int { return slices.Compare(a[:], b[:]) })
	return out
}

// TestDealtListingDeterministic: the ordered listing of a cooperative run
// is, byte for byte, the order's definition with a window of P·M entries —
// for P = 1..4 at equal P·M, with the runners yielding between blocks so
// that every repeat deals differently; for one window, 48 of them, and a
// window one entry short of the longest list; on both store formats, with
// blocks small enough that the hub lists arrive in pieces; and it is
// baseline.ForwardList's triangle set. Counting runs the same scan as
// listing: at every (P, M), at four rounds whose listing cut is finer than
// the count's, and on a store of over 256 K entries in one window and in
// four, it takes the same steps, each dealing the blocks of its own cut.
func TestDealtListingDeterministic(t *testing.T) {
	g, err := gen.PowerLaw(500, 5000, 1.8, 7)
	if err != nil {
		t.Fatal(err)
	}
	var want []triple
	baseline.ForwardList(g, func(u, v, w graph.Vertex) { want = append(want, triple{u, v, w}) })
	for i := range want {
		slices.Sort(want[i][:])
	}
	slices.SortFunc(want, func(a, b triple) int { return slices.Compare(a[:], b[:]) })

	repeats := 20
	if testing.Short() {
		repeats = 3
	}
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		total := int(d.Meta.AdjEntries)
		dmax := int(d.Meta.MaxOutDegree)
		for _, window := range []int{total + 5, (total + 47) / 48, dmax - 1} {
			for _, blockEntries := range []int{0, dmax / 3} {
				// P·M = window exactly, for every P.
				pm := (window + 11) / 12 * 12
				ref := definedListing(t, d, FullRange(d), pm)
				name := fmt.Sprintf("%s/window=%d/block=%d", d.Format(), pm, blockEntries)
				if got := sortedTriples(t, ref); !slices.Equal(got, normalized(got)) || len(got) != len(want) {
					t.Fatalf("%s: reference lists %d triangles, baseline %d", name, len(got), len(want))
				}
				for p := 1; p <= 4; p++ {
					for rep := 0; rep < repeats; rep++ {
						cfg := DealConfig{Workers: p, MemEdges: pm / p, blockEntries: blockEntries, afterBlock: runtime.Gosched}
						got, stats := dealtListing(t, d, []balance.Range{FullRange(d)}, cfg)
						if !bytes.Equal(got, ref) {
							t.Fatalf("%s P=%d rep %d: listing differs from the defined sequence (%d vs %d bytes)", name, p, rep, len(got), len(ref))
						}
						if rounds := (total + pm - 1) / pm; stats[0].Passes != rounds {
							t.Fatalf("%s P=%d: %d rounds, want %d", name, p, stats[0].Passes, rounds)
						}
						if rep == 0 {
							countEqualsListing(t, fmt.Sprintf("%s P=%d", name, p), d, cfg)
						}
					}
				}
			}
		}
	}
	// A listing of four rounds whose blocks are larger than four rounds'
	// listing cut: the scan deals the cut, and lists what it defines.
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		pm := (int(d.Meta.AdjEntries) + 3) / 4
		cfg := DealConfig{Workers: 3, MemEdges: (pm + 2) / 3, blockEntries: 8 * ListBlockEntries, afterBlock: runtime.Gosched}
		got, _ := dealtListing(t, d, []balance.Range{FullRange(d)}, cfg)
		if !bytes.Equal(got, definedListing(t, d, FullRange(d), 3*cfg.MemEdges)) {
			t.Fatalf("%s at four rounds: listing differs from the defined sequence", d.Format())
		}
		countEqualsListing(t, fmt.Sprintf("%s at four rounds", d.Format()), d, cfg)
	}
	// And the sequence's set is the baseline's.
	d := orientedStore(t, g)
	got, _ := dealtListing(t, d, []balance.Range{FullRange(d)}, DealConfig{Workers: 3, MemEdges: 500})
	tris := originalIDs(t, d, sortedTriples(t, got))
	for i := range tris {
		slices.Sort(tris[i][:])
	}
	slices.SortFunc(tris, func(a, b triple) int { return slices.Compare(a[:], b[:]) })
	if !slices.Equal(tris, want) {
		t.Fatalf("dealt listing has %d triangles, baseline %d, or they differ", len(tris), len(want))
	}
	// One window of RMAT-15's 340 K entries: the whole store in memory.
	big, err := gen.RMAT(15, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	d = orientedStore(t, big)
	if total := int(d.Meta.AdjEntries); total <= 256<<10 {
		t.Fatalf("RMAT-15 has %d entries", total)
	}
	for _, p := range []int{1, 2} {
		cfg := DealConfig{Workers: p, MemEdges: int(d.Meta.AdjEntries)/p + 1}
		countEqualsListing(t, fmt.Sprintf("RMAT-15 P=%d", p), d, cfg)
	}
	countEqualsListing(t, "RMAT-15 four rounds", d, DealConfig{Workers: 2, MemEdges: int(d.Meta.AdjEntries)/8 + 1})
}

// originalIDs maps triples of d's ids to the ids the vertices had before
// orientation.
func originalIDs(t *testing.T, d *graph.Disk, ts []triple) []triple {
	t.Helper()
	perm, err := d.Perm()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]triple, len(ts))
	for i, tri := range ts {
		for j, v := range tri {
			out[i][j] = perm[v]
		}
	}
	return out
}

// normalized returns ts without duplicates (ts sorted).
func normalized(ts []triple) []triple { return slices.Compact(slices.Clone(ts)) }

// TestDealtSpans: several spans are each covered by their own windows, in
// order — the listing is the concatenation of the defined listings of the
// spans — and counting over any cut of the store adds up.
func TestDealtSpans(t *testing.T) {
	g, err := gen.RMAT(10, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		total := d.Meta.AdjEntries
		spans := []balance.Range{{Lo: 0, Hi: total / 5}, {Lo: total / 5, Hi: total / 5}, {Lo: total / 3, Hi: total}}
		const p, m = 3, 400
		var ref []byte
		for _, s := range spans {
			ref = append(ref, definedListing(t, d, s, p*m)...)
		}
		got, stats := dealtListing(t, d, spans, DealConfig{Workers: p, MemEdges: m})
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: spans list %d bytes, the defined listings of the spans %d", d.Format(), len(got), len(ref))
		}
		rounds := 0
		for _, s := range spans {
			rounds += int((s.Len() + p*m - 1) / (p * m))
		}
		if stats[1].Passes != rounds {
			t.Errorf("%s: %d rounds, want %d", d.Format(), stats[1].Passes, rounds)
		}
		missing := definedListing(t, d, balance.Range{Lo: total / 5, Hi: total / 3}, p*m)
		if uint64(len(got)+len(missing)) != 12*want {
			t.Errorf("%s: spans and the gap between them list %d triangles, baseline %d", d.Format(), (len(got)+len(missing))/12, want)
		}
		if _, err := RunDealt(context.Background(), d, []balance.Range{{Lo: 5, Hi: 9}, {Lo: 8, Hi: 12}}, DealConfig{Workers: 1, MemEdges: 4}); err == nil {
			t.Errorf("%s: overlapping spans went unnoticed", d.Format())
		}
	}
}

// TestDealtIOExact is Theorem IV.3 for cooperative windows, to the byte: a
// round reads the window once and, once each, the lists it can reach that
// are not wholly inside it — on a ranked store those from the window's first
// vertex on, on an id-space store (written before rank space) all of them —
// so a run of one window reads the store exactly once. Every run counts the
// baseline's triangles, and the id-space store also lists what the order's
// definition lists, the count included.
func TestDealtIOExact(t *testing.T) {
	g, err := gen.PowerLaw(3000, 60000, 1.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	tris := baseline.Forward(g)
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g), idSpaceStore(t, g)} {
		total := d.Meta.AdjEntries
		for _, tc := range []struct{ p, m, block int }{
			{1, int(total), 0}, {2, int(total), 0}, {3, int(total)/9 + 1, 0}, {2, int(total)/48 + 1, 0}, {2, int(total)/7 + 1, 300},
		} {
			res, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, DealConfig{Workers: tc.p, MemEdges: tc.m, blockEntries: tc.block})
			if err != nil {
				t.Fatal(err)
			}
			stats := res.Runners
			want, wantLoads := oneReaderBytes(d, FullRange(d), tc.p*tc.m)
			rounds := int((total + uint64(tc.p*tc.m) - 1) / uint64(tc.p*tc.m))
			var got int64
			var loaded, found uint64
			for _, st := range stats {
				got += st.IO.BytesRead
				loaded += st.EdgesLoaded
				found += st.Triangles
				if st.Passes != rounds {
					t.Errorf("%s %+v: a runner reports %d rounds, want %d", d.Format(), tc, st.Passes, rounds)
				}
			}
			if got != want || res.WindowIO.BytesRead != wantLoads {
				t.Errorf("%s %+v: read %d bytes for the blocks and %d for the windows, want %d and %d", d.Format(), tc, got, res.WindowIO.BytesRead, want, wantLoads)
			}
			if loaded != total {
				t.Errorf("%s %+v: loaded %d entries into windows, the store has %d", d.Format(), tc, loaded, total)
			}
			if found != tris {
				t.Errorf("%s %+v: %d triangles, baseline %d", d.Format(), tc, found, tris)
			}
			if rounds == 1 && (got != 0 || wantLoads != d.AdjBytes()) {
				t.Errorf("%s %+v: a one-window run read %d bytes besides the window, and the store is %d", d.Format(), tc, got, d.AdjBytes())
			}
			if !d.Meta.Ranked {
				cfg := DealConfig{Workers: tc.p, MemEdges: tc.m, blockEntries: tc.block}
				if got, _ := dealtListing(t, d, []balance.Range{FullRange(d)}, cfg); !bytes.Equal(got, definedListing(t, d, FullRange(d), tc.p*tc.m)) {
					t.Errorf("id-space %+v: the listing is not the defined one", tc)
				}
			}
		}
	}
}

// TestDealtConeUnits: a round cut into runs of whole cone blocks (Cone),
// each run against one Held window, is the unrestricted run taken apart —
// listed one after the other the runs list the same bytes; they count the
// same triangles with the same steps; the window is loaded once, by the
// first run of it, which alone reports the pass; and between them they read
// exactly what the unrestricted run reads — on both formats, ranked and in
// id space, at one window and at several.
func TestDealtConeUnits(t *testing.T) {
	g, err := gen.PowerLaw(1500, 20000, 1.9, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g), idSpaceStore(t, g)} {
		total := d.Meta.AdjEntries
		for _, tc := range []struct{ p, m, block, per int }{{2, int(total), 400, 3}, {3, int(total)/9 + 1, 300, 2}, {1, int(total)/3 + 1, 500, 1}} {
			name := fmt.Sprintf("%s ranked=%v %+v", d.Format(), d.Meta.Ranked, tc)
			pm := uint64(tc.p * tc.m)
			full := DealConfig{Workers: tc.p, MemEdges: tc.m, blockEntries: tc.block}
			refList, _ := dealtListing(t, d, []balance.Range{FullRange(d)}, full)
			ref, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, full)
			if err != nil {
				t.Fatal(err)
			}
			// The units, window-major: whole runs of tc.per blocks from the
			// window's first vertex on (ranked) or from vertex 0.
			cuts := cutBlocks(d, uint64(tc.block), uint64(tc.block)*graph.EntrySize)
			type unit struct{ win, cone balance.Range }
			var units []unit
			for lo := uint64(0); lo < total; lo += pm {
				first := graph.Vertex(0)
				if d.Meta.Ranked {
					first = d.VertexAt(lo)
				}
				b := sort.Search(len(cuts)-1, func(b int) bool { return cuts[b+1] > first })
				for a := first; int(a) < d.NumVertices(); b += tc.per {
					z := cuts[min(b+tc.per, len(cuts)-1)]
					units = append(units, unit{balance.Range{Lo: lo, Hi: min(lo+pm, total)}, balance.Range{Lo: uint64(a), Hi: uint64(z)}})
					a = z
				}
			}
			var list []byte
			var passes, loads int
			var tris, steps uint64
			var read, windowRead int64
			counting, listing := &Window{}, &Window{}
			for _, u := range units {
				cfg := full
				cfg.Cone, cfg.Held = u.cone, counting
				resident := counting.Holds(d, u.win)
				res, err := RunDealt(context.Background(), d, []balance.Range{u.win}, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p := res.Runners[0].Passes; (p == 0) != resident || (resident && res.WindowIO.BytesRead != 0) {
					t.Fatalf("%s: a run of a window held %v reports %d passes and reads %d bytes of window", name, resident, p, res.WindowIO.BytesRead)
				}
				passes += res.Runners[0].Passes
				windowRead += res.WindowIO.BytesRead
				for _, st := range res.Runners {
					tris, steps, read = tris+st.Triangles, steps+st.CmpOps, read+st.IO.BytesRead
				}
				cfg.Held = listing
				part, stats := dealtListing(t, d, []balance.Range{u.win}, cfg)
				list = append(list, part...)
				loads += stats[0].Passes
			}
			if rounds := int((total + pm - 1) / pm); passes != rounds || loads != rounds {
				t.Errorf("%s: the runs loaded %d and %d windows, want %d", name, passes, loads, rounds)
			}
			if !bytes.Equal(list, refList) {
				t.Errorf("%s: the runs list %d bytes, the whole run %d, or they differ", name, len(list), len(refList))
			}
			var wantTris, wantSteps uint64
			var wantRead int64
			for _, st := range ref.Runners {
				wantTris, wantSteps, wantRead = wantTris+st.Triangles, wantSteps+st.CmpOps, wantRead+st.IO.BytesRead
			}
			if tris != wantTris || steps != wantSteps || read != wantRead || windowRead != ref.WindowIO.BytesRead {
				t.Errorf("%s: the runs count %d triangles in %d steps reading %d + %d bytes; the whole run %d, %d, %d + %d",
					name, tris, steps, read, windowRead, wantTris, wantSteps, wantRead, ref.WindowIO.BytesRead)
			}
		}
	}
}

// idSpaceStore writes g's orientation in g's own ids, with no .perm — a
// store from before rank space — and opens it.
func idSpaceStore(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	base := filepath.Join(t.TempDir(), "idspace")
	if err := graph.WriteCSR(base, "test", orient.CSR(g)); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// openFDs counts the process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	return len(ents)
}

// TestDealtCancelAndDamage: cancelling mid-round returns the bare ctx.Err()
// with no goroutine or descriptor left behind; a truncated block, a damaged
// segment header and a vertex id ≥ n each fail the run — no panic, no count.
func TestDealtCancelAndDamage(t *testing.T) {
	g, err := gen.PowerLaw(2000, 30000, 2.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	plain, comp := orientedStore(t, g), compressedStore(t, g)
	full := []balance.Range{FullRange(plain)}

	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	for _, d := range []*graph.Disk{plain, comp} {
		ctx, cancel := context.WithCancel(context.Background())
		blocks := 0
		cfg := DealConfig{Workers: 1, MemEdges: 2000, blockEntries: 200, afterBlock: func() {
			if blocks++; blocks == 40 {
				cancel()
			}
		}}
		res, err := RunDealt(ctx, d, full, cfg)
		if err != context.Canceled {
			t.Errorf("%s: cancelled run returned %v, want the bare context.Canceled", d.Format(), err)
		}
		if res.Runners[0].Passes > 1 {
			t.Errorf("%s: run went on for %d rounds after the cancellation", d.Format(), res.Runners[0].Passes)
		}
		cancel()
		if _, err := RunDealt(ctx, d, full, DealConfig{Workers: 2, MemEdges: 2000}); err != context.Canceled {
			t.Errorf("%s: pre-cancelled run returned %v", d.Format(), err)
		}
	}
	for i := 0; runtime.NumGoroutine() > goroutines && i < 100; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the cancelled runs, %d before", n, goroutines)
	}
	if n := openFDs(t); n != fds {
		t.Errorf("%d open descriptors after the cancelled runs, %d before", n, fds)
	}

	damage := func(path string, edit func(b []byte) []byte) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustFail := func(name string, d *graph.Disk, spans []balance.Range) {
		t.Helper()
		for _, p := range []int{1, 3} {
			for _, m := range []int{int(d.Meta.AdjEntries), 1500} {
				res, err := RunDealt(context.Background(), d, spans, DealConfig{Workers: p, MemEdges: m, blockEntries: 300})
				if err == nil || errors.Is(err, context.Canceled) {
					t.Errorf("%s P=%d M=%d: run returned %v (%d triangles)", name, p, m, err, res.Runners[0].Triangles)
				}
				// Listing, with no spare buffer: the runner that fails leaves
				// its block unended, and the runners waiting for the head to
				// reach theirs must still come back.
				within(t, fmt.Sprintf("%s P=%d M=%d listing", name, p, m), func() {
					cfg := DealConfig{Workers: p, MemEdges: m, blockEntries: 300, Listing: newListing(io.Discard, p, 36, 0)}
					if _, err := RunDealt(context.Background(), d, spans, cfg); err == nil || errors.Is(err, context.Canceled) {
						t.Errorf("%s P=%d M=%d: listing returned %v", name, p, m, err)
					}
				})
			}
		}
		if n := openFDs(t); n != fds {
			t.Errorf("%s: %d open descriptors after the failed runs, %d before", name, n, fds)
		}
	}
	// A vertex id ≥ n, at the end of the longest list (which has out-edges
	// of its out-neighbours to meet in some window, so it is stamped).
	hub := graph.Vertex(slices.Index(plain.Degrees, plain.Meta.MaxOutDegree))
	damage(graph.AdjPath(plain.Base), func(b []byte) []byte {
		b[plain.Offsets[hub+1]*graph.EntrySize-2] = 0x7f
		return b
	})
	mustFail("vertex id ≥ n", plain, full)
	// A truncated block.
	damage(graph.AdjPath(plain.Base), func(b []byte) []byte { return b[:len(b)-40] })
	mustFail("truncated .adj", plain, full)
	// A damaged segment header: the kind byte of some list's first segment.
	v := graph.Vertex(0)
	for int(comp.Degrees[v]) < 3 {
		v++
	}
	damage(graph.CAdjPath(comp.Base), func(b []byte) []byte {
		b[4+comp.ByteOffs[v]] = 9
		return b
	})
	mustFail("damaged segment header", comp, full)
	damage(graph.CAdjPath(comp.Base), func(b []byte) []byte { return b[:len(b)-40] })
	mustFail("truncated .cadj", comp, full)
}

// TestDealtRoundZeroAlloc: a warmed cooperative round — window load, every
// block dealt, every barrier — allocates nothing when counting.
func TestDealtRoundZeroAlloc(t *testing.T) {
	g, err := gen.PowerLaw(2000, 20000, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	for _, d := range []*graph.Disk{orientedStore(t, g), compressedStore(t, g)} {
		// RunDealt's own set-up allocates; what must not is a round. Run the
		// same store at one round and at thirteen: the difference is twelve
		// warmed rounds.
		allocs := func(rounds int) float64 {
			cfg := DealConfig{Workers: 2, MemEdges: (int(d.Meta.AdjEntries)/rounds + 2) / 2, blockEntries: 500}
			return testing.AllocsPerRun(5, func() {
				res, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, cfg)
				if stats := res.Runners; err != nil || stats[0].Triangles+stats[1].Triangles != want || stats[0].Passes != rounds {
					t.Fatalf("run: %+v, %v", stats, err)
				}
			})
		}
		if one, many := allocs(1), allocs(13); many > one {
			t.Errorf("%s: a 13-round run allocates %.0f times, a 1-round run %.0f: rounds allocate", d.Format(), many, one)
		}
	}
}

// TestDealtDeadListsInvisible: a list a round rejects for ending below its
// window is skipped unread by the later rounds of the run, and that changes
// nothing a run reports. Blocks small enough to split the 64-vertex words of
// the dead-list bits, between up to four runners, over a dozen rounds: the
// count is the baseline's, and the segments skipped are, round by round, those
// of every list from the window's first vertex on that the round scans from
// the store (of at least two entries, neither held whole by the window nor a
// block by itself) and that ends below the window or starts above it.
func TestDealtDeadListsInvisible(t *testing.T) {
	g, err := gen.PowerLaw(2000, 20000, 2.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	d := compressedStore(t, g)
	if !d.Meta.Ranked {
		t.Fatal("the oriented store is not ranked")
	}
	csr, err := d.LoadCSR()
	if err != nil {
		t.Fatal(err)
	}
	const block = 64
	if !slices.ContainsFunc(cutBlocks(d, block, block*graph.EntrySize), func(c graph.Vertex) bool { return c%64 != 0 }) {
		t.Fatal("no cone block boundary splits a word of the dead-list bits")
	}
	total, n := d.Meta.AdjEntries, graph.Vertex(d.NumVertices())
	for _, p := range []int{1, 2, 4} {
		mem := int(total/12)/p + 1
		win := uint64(p * mem)
		var skipped, again uint64
		dead := make(map[graph.Vertex]bool)
		for lo := uint64(0); lo < total; lo += win {
			hi := min(lo+win, total)
			vlow, vhigh := d.VertexAt(lo), d.VertexAt(hi-1)
			for u := vlow; u < n; u++ {
				list := csr.Adj[csr.Offsets[u]:csr.Offsets[u+1]]
				resident := csr.Offsets[u] >= lo && csr.Offsets[u+1] <= hi
				streamed := len(list) > block || d.ByteOffs[u+1]-d.ByteOffs[u] > block*graph.EntrySize
				if len(list) < 2 || resident || streamed {
					continue
				}
				if list[len(list)-1] < vlow || list[0] > vhigh {
					skipped += uint64((len(list) + graph.SegmentEntries - 1) / graph.SegmentEntries)
				}
				if list[len(list)-1] < vlow {
					if dead[u] {
						again++
					}
					dead[u] = true
				}
			}
		}
		if again == 0 {
			t.Fatalf("P=%d: no list ends below the windows of two rounds", p)
		}
		res, err := RunDealt(context.Background(), d, []balance.Range{FullRange(d)}, DealConfig{Workers: p, MemEdges: mem, blockEntries: block})
		if err != nil {
			t.Fatal(err)
		}
		var got Stats
		for _, st := range res.Runners {
			got.Triangles += st.Triangles
			got.SegmentsSkipped += st.SegmentsSkipped
		}
		if rounds := res.Runners[0].Passes; rounds < 8 {
			t.Fatalf("P=%d: %d rounds, want at least 8", p, rounds)
		}
		if got.Triangles != want || got.SegmentsSkipped != skipped {
			t.Errorf("P=%d: %d triangles, %d segments skipped; want %d and %d", p, got.Triangles, got.SegmentsSkipped, want, skipped)
		}
	}
}
