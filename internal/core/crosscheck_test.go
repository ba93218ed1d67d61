package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// orientedDisk writes g, orients it, and opens the oriented store.
func orientedDisk(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "g")
	if err := graph.WriteCSR(src, "g", g); err != nil {
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

// idSpaceDisk writes g's orientation in its own ids — a store from before
// rank space, with no .perm — and opens it.
func idSpaceDisk(t testing.TB, g *graph.CSR) *graph.Disk {
	t.Helper()
	base := filepath.Join(t.TempDir(), "idspace")
	if err := graph.WriteCSR(base, "g", orient.CSR(g)); err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// equalSplit cuts the adjacency range into p equal pieces.
func equalSplit(d *graph.Disk, p int) []balance.Range {
	total := d.Meta.AdjEntries
	ranges := make([]balance.Range, p)
	for i := 0; i < p; i++ {
		ranges[i] = balance.Range{
			Lo: total * uint64(i) / uint64(p),
			Hi: total * uint64(i+1) / uint64(p),
		}
	}
	return ranges
}

// recordingSink appends triangles in listing order; one per runner, so no
// locking and the per-runner sequence is deterministic.
type recordingSink struct {
	tris [][3]graph.Vertex
}

func (s *recordingSink) Triangle(u, v, w graph.Vertex) {
	s.tris = append(s.tris, [3]graph.Vertex{u, v, w})
}

// listed is one listing run: what every sink received, the sequence the
// run writes to its ordered output, and the triangle total of the stats.
type listed struct {
	sinks     [][][3]graph.Vertex
	assembled [][3]graph.Vertex
	total     uint64
	// skipped counts the segments the last run rejected on their headers.
	skipped uint64
}

// runListed runs ranges under opt twice: with one recording sink per runner,
// and writing its ordered listing to a buffer. With countOnly it runs once,
// without either, and fills in the total alone.
func runListed(t *testing.T, label string, d *graph.Disk, ranges []balance.Range, opt Options, countOnly bool) listed {
	t.Helper()
	var out listed
	run := func(opt Options) uint64 {
		t.Helper()
		calc, err := RunRanges(context.Background(), d, ranges, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var total uint64
		out.skipped = 0
		for _, w := range calc.Workers {
			total += w.Stats.Triangles
			out.skipped += w.Stats.SegmentsSkipped
		}
		return total
	}
	if countOnly {
		out.total = run(opt)
		return out
	}
	// Listed in original ids, as every public entry point lists.
	var err error
	if opt.IDs, err = d.Perm(); err != nil {
		t.Fatal(err)
	}
	sinks := opt
	sinks.Sinks = make([]mgt.Sink, opt.Runners(len(ranges)))
	recs := make([]recordingSink, len(sinks.Sinks))
	for i := range sinks.Sinks {
		sinks.Sinks[i] = &recs[i]
	}
	total := run(sinks)
	for _, rec := range recs {
		out.sinks = append(out.sinks, rec.tris)
	}
	var buf bytes.Buffer
	ordered := opt
	ordered.Out, ordered.SpillDir = &buf, t.TempDir()
	if out.total = run(ordered); out.total != total {
		t.Fatalf("%s: %d triangles listed in order, %d to sinks", label, out.total, total)
	}
	tris, err := mgt.ReadTriangles(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out.assembled = tris
	if uint64(len(out.assembled)) != out.total {
		t.Fatalf("%s: the ordered listing has %d triangles, stats say %d", label, len(out.assembled), out.total)
	}
	return out
}

// kernels is the kernel axis of every cross-check: the runners' own cone
// routine and the paper's merge.
var kernels = []mgt.KernelKind{mgt.KernelAuto, mgt.KernelMerge}

// sameSequences fails unless got and ref hold the same sequences.
func sameSequences(t *testing.T, label string, got, ref [][][3]graph.Vertex) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d sequences, reference combo %d", label, len(got), len(ref))
	}
	for i := range got {
		if len(got[i]) != len(ref[i]) {
			t.Fatalf("%s: sequence %d lists %d triangles, reference combo listed %d", label, i, len(got[i]), len(ref[i]))
		}
		for k := range got[i] {
			if got[i][k] != ref[i][k] {
				t.Fatalf("%s: sequence %d triangle %d = %v, reference %v", label, i, k, got[i][k], ref[i][k])
			}
		}
	}
}

// isBaselineSet fails unless tris is exactly the baseline's triangle set.
func isBaselineSet(t *testing.T, label string, tris [][3]graph.Vertex, wantSet map[[3]graph.Vertex]bool) {
	t.Helper()
	seen := map[[3]graph.Vertex]bool{}
	for _, tri := range tris {
		if seen[tri] {
			t.Fatalf("%s: triangle %v listed twice", label, tri)
		}
		seen[tri] = true
		if !wantSet[tri] {
			t.Fatalf("%s: listed %v which the baseline does not contain", label, tri)
		}
	}
	if len(seen) != len(wantSet) {
		t.Fatalf("%s: listed %d distinct triangles, want %d", label, len(seen), len(wantSet))
	}
}

// TestAllSourceKernelCombosIdentical is the cross-check demanded by the
// execution-layer refactor: for several generated graphs, every
// (ScanSource × kernel) combination must produce the same
// triangle count as the in-memory baseline AND the same listed triangle
// sequence per runner — not just the same set, since sources and kernels
// both promise order-preserving equivalence.
func TestAllSourceKernelCombosIdentical(t *testing.T) {
	graphs := []struct {
		name string
		g    func() (*graph.CSR, error)
		// memEdges small enough to force several passes; for k40 it is
		// below d*max, forcing the segmented large-vertex path too.
		memEdges int
	}{
		{"er", func() (*graph.CSR, error) { return gen.ErdosRenyi(300, 3000, 7) }, 128},
		{"powerlaw", func() (*graph.CSR, error) { return gen.PowerLaw(400, 6000, 2.2, 11) }, 96},
		{"community", func() (*graph.CSR, error) {
			return gen.Community(300, 4000, gen.CommunityParams{Communities: 6, IntraProb: 0.8, Exponent: 2.3}, 3)
		}, 128},
		{"k40", func() (*graph.CSR, error) { return gen.Complete(40) }, 16},
		{"trigrid", func() (*graph.CSR, error) { return gen.TriGrid(9, 9) }, 32},
	}
	sources := []scan.SourceKind{scan.SourceBuffered}
	const workers = 3

	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Forward(g)
			wantSet := map[[3]graph.Vertex]bool{}
			baseline.ForwardList(g, func(u, v, w graph.Vertex) {
				wantSet[[3]graph.Vertex{u, v, w}] = true
			})
			d := orientedDisk(t, g)
			ranges := equalSplit(d, workers)

			// ref is the per-runner listing under the first combo; every
			// other named-source combo must reproduce it exactly.
			var ref [][][3]graph.Vertex
			for _, src := range sources {
				for _, kern := range kernels {
					label := fmt.Sprintf("%s/%s", src, kern)
					got := runListed(t, label, d, ranges, Options{MemEdges: tc.memEdges, Scan: src, Kernel: kern}, false)
					if got.total != want {
						t.Fatalf("%s: %d triangles, want %d", label, got.total, want)
					}
					isBaselineSet(t, label, got.assembled, wantSet)
					if ref == nil {
						ref = got.sinks
						continue
					}
					sameSequences(t, label, got.sinks, ref)
				}
			}

			// The default source's row: cooperative windows list, for either
			// kernel and whatever the ranges were cut into, exactly what one
			// runner of the paper's configuration lists with the whole
			// window — workers·memEdges entries.
			one := runListed(t, "buffered/one runner", d, []balance.Range{mgt.FullRange(d)},
				Options{MemEdges: workers * tc.memEdges, Scan: scan.SourceBuffered}, false)
			for _, kern := range kernels {
				label := fmt.Sprintf("auto/%s", kern)
				got := runListed(t, label, d, ranges, Options{Workers: workers, MemEdges: tc.memEdges, Kernel: kern}, false)
				if got.total != want {
					t.Fatalf("%s: %d triangles, want %d", label, got.total, want)
				}
				isBaselineSet(t, label, got.assembled, wantSet)
				sameSequences(t, label, [][][3]graph.Vertex{got.assembled}, [][][3]graph.Vertex{one.assembled})
			}
		})
	}
}

// TestSchedSourceKernelCombosIdentical extends the cross-check to the
// schedule axis — the P ranges of a static plan, or the K·P chunks of a
// stealing one as a node receives them in a batch: sched(static, stealing) ×
// scan(buffered) × kernel(auto, merge) must
// all produce identical, order-normalized triangle listings versus the
// in-memory baseline. On top of the set identity, the per-chunk listings of
// every stealing combo must agree exactly (same sequence per chunk) —
// sources and kernels promise order-preserving equivalence.
func TestSchedSourceKernelCombosIdentical(t *testing.T) {
	graphs := []struct {
		name     string
		g        func() (*graph.CSR, error)
		memEdges int
	}{
		{"powerlaw", func() (*graph.CSR, error) { return gen.PowerLaw(400, 6000, 2.2, 11) }, 96},
		{"k40", func() (*graph.CSR, error) { return gen.Complete(40) }, 16},
	}
	sources := []scan.SourceKind{scan.SourceBuffered}
	const workers = 3
	const perWorker = 4

	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Forward(g)
			wantSet := map[[3]graph.Vertex]bool{}
			baseline.ForwardList(g, func(u, v, w graph.Vertex) {
				wantSet[[3]graph.Vertex{u, v, w}] = true
			})
			d := orientedDisk(t, g)
			staticRanges := equalSplit(d, workers)
			chunks := equalSplit(d, workers*perWorker)

			// refChunks is the per-chunk listing under the first stealing
			// combo; every other stealing combo must match it.
			var refChunks [][][3]graph.Vertex
			for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
				for _, src := range sources {
					for _, kern := range kernels {
						label := fmt.Sprintf("%s/%s/%s", mode, src, kern)
						ranges := staticRanges
						if mode == sched.Stealing {
							ranges = chunks
						}
						got := runListed(t, label, d, ranges, Options{
							Workers: workers, MemEdges: tc.memEdges, Scan: src, Kernel: kern,
						}, false)
						if got.total != want {
							t.Fatalf("%s: %d triangles, want %d", label, got.total, want)
						}
						isBaselineSet(t, label, got.assembled, wantSet)
						if mode != sched.Stealing {
							continue
						}
						if refChunks == nil {
							refChunks = got.sinks
							continue
						}
						sameSequences(t, label, got.sinks, refChunks)
					}
				}
			}
		})
	}
}

// bitmapBoundaryGraph builds an ultra-high-degree graph whose compressed
// oriented store crosses the segment and bitmap boundaries: every vertex of
// A = {0..119} is adjacent to all of B = {120..420}, so each a's oriented
// out-list is the dense consecutive run B (301 entries — a full 256-entry
// bitmap segment plus a partial tail segment), longer than the small
// memEdges below, which forces the large-vertex path over bitmap blocks
// too. Three intra-B edges plant the triangles (120 per edge).
func bitmapBoundaryGraph() (*graph.CSR, error) {
	var edges []graph.Edge
	for a := uint32(0); a < 120; a++ {
		for b := uint32(120); b <= 420; b++ {
			edges = append(edges, graph.Edge{U: a, V: b})
		}
	}
	for _, e := range [][2]uint32{{120, 121}, {270, 271}, {419, 420}} {
		edges = append(edges, graph.Edge{U: e[0], V: e[1]})
	}
	return graph.FromEdges(421, edges)
}

// TestSchedSourceKernelStoreCombosIdentical is the full execution-layer
// cross-check with the store axis added: sched(static, stealing) ×
// scan(auto, buffered) × kernel(auto, merge) ×
// store(plain, compressed) must produce the identical triangle listing —
// the same sequence per sink under the named sources, the same assembled
// sequence under the default's cooperative windows, not just the same set —
// and match the in-memory baseline count. Every combo then reruns with nil
// sinks, counting only; its total must equal both the listing total and the
// baseline, and on the compressed store both runs must reject segments on
// their headers. The graphs pin the regimes that matter: Complete(40) at memEdges
// 16 (every vertex takes the large-vertex path), a skewed power law, and the
// bitmap-boundary graph above (dense 301-entry lists spanning a full bitmap
// segment plus a tail, decoded through both segment kinds).
func TestSchedSourceKernelStoreCombosIdentical(t *testing.T) {
	graphs := []struct {
		name     string
		g        func() (*graph.CSR, error)
		memEdges int
	}{
		{"powerlaw", func() (*graph.CSR, error) { return gen.PowerLaw(400, 6000, 2.2, 11) }, 96},
		{"k40", func() (*graph.CSR, error) { return gen.Complete(40) }, 16},
		{"bitmap", bitmapBoundaryGraph, 256},
	}
	sources := []scan.SourceKind{scan.SourceBuffered}
	const workers = 3
	const perWorker = 2

	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Forward(g)
			d := orientedDisk(t, g)
			cbase := d.Base + ".compressed"
			if err := graph.ConvertStore(d.Base, cbase, graph.FormatCompressed); err != nil {
				t.Fatal(err)
			}
			cd, err := graph.Open(cbase)
			if err != nil {
				t.Fatal(err)
			}
			disks := map[graph.Format]*graph.Disk{
				graph.FormatPlain:      d,
				graph.FormatCompressed: cd,
			}
			staticRanges := equalSplit(d, workers)
			chunks := equalSplit(d, workers*perWorker)

			// ref[mode] is the per-sink listing under the first named-source
			// combo of that schedule, auto[mode] the assembled listing under
			// the first default-source one; every other combo — including
			// every compressed-store one — must reproduce its reference byte
			// for byte.
			ref := map[sched.Mode][][][3]graph.Vertex{}
			auto := map[sched.Mode][][][3]graph.Vertex{}
			for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
				for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
					ranges := staticRanges
					if mode == sched.Stealing {
						ranges = chunks
					}
					for _, src := range append([]scan.SourceKind{scan.SourceAuto}, sources...) {
						for _, kern := range kernels {
							label := fmt.Sprintf("%s/%s/%s/%s", format, mode, src, kern)
							opt := Options{Workers: workers, MemEdges: tc.memEdges, Scan: src, Kernel: kern}
							got := runListed(t, label, disks[format], ranges, opt, false)
							if got.total != want {
								t.Fatalf("%s: %d triangles, want %d", label, got.total, want)
							}
							// Count-only rerun of the identical combo: its
							// total must agree with the listing path and
							// the baseline.
							c := runListed(t, label+" count-only", disks[format], ranges, opt, true)
							if c.total != want {
								t.Fatalf("%s count-only: %d triangles, want %d", label, c.total, want)
							}
							if format == graph.FormatCompressed && (got.skipped == 0 || c.skipped == 0) {
								t.Errorf("%s: no segment rejected on its header (listing %d, count %d)", label, got.skipped, c.skipped)
							}
							seqs, refs := got.sinks, ref
							if src.IsAuto() {
								// Which runner was dealt which block is
								// timing; the assembled listing is not.
								seqs, refs = [][][3]graph.Vertex{got.assembled}, auto
							}
							if refs[mode] == nil {
								refs[mode] = seqs
								continue
							}
							sameSequences(t, label, seqs, refs[mode])
						}
					}
				}
			}
			// What the default source's references are: adjacent ranges —
			// static ones or finer chunks alike — coalesce into one span,
			// listed as one runner with the whole window lists it. (A
			// stealing cluster deals cone blocks, not chunks; its listing is
			// pinned against this one in internal/cluster.)
			whole := Options{MemEdges: workers * tc.memEdges, Scan: scan.SourceBuffered}
			one := runListed(t, "one runner", d, []balance.Range{mgt.FullRange(d)}, whole, false)
			for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
				sameSequences(t, mode.String()+"/auto", auto[mode], [][][3]graph.Vertex{one.assembled})
			}
		})
	}
}

// TestPaperLayoutIOExact is Theorem IV.3 for the paper's layout, to the
// byte: each runner is a one-runner dealt run over its range, so per window
// it reads once every list from the window's first vertex on (on a ranked
// store; every list on an id-space one) that the window does not hold
// whole, plus the window itself — the lists of the vertices holding it on a
// compressed store — and nothing is read on anyone else's behalf.
func TestPaperLayoutIOExact(t *testing.T) {
	g, err := gen.PowerLaw(800, 9000, 2.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedDisk(t, g)
	cbase := d.Base + ".compressed"
	if err := graph.ConvertStore(d.Base, cbase, graph.FormatCompressed); err != nil {
		t.Fatal(err)
	}
	cd, err := graph.Open(cbase)
	if err != nil {
		t.Fatal(err)
	}
	const P = 4
	for _, d := range []*graph.Disk{d, cd, idSpaceDisk(t, g)} {
		listBytes := func(a, z graph.Vertex) int64 {
			if d.ByteOffs != nil {
				return int64(d.ByteOffs[z] - d.ByteOffs[a])
			}
			return int64(d.Offsets[z]-d.Offsets[a]) * graph.EntrySize
		}
		total := int(d.Meta.AdjEntries)
		for _, mem := range []int{total, total/48 + 1, int(d.Meta.MaxOutDegree) - 1} {
			calc, err := RunRanges(context.Background(), d, equalSplit(d, P), Options{MemEdges: mem, Scan: scan.SourceBuffered})
			if err != nil {
				t.Fatal(err)
			}
			if calc.SourceIO.BytesRead != 0 {
				t.Errorf("%s M=%d: %d bytes read on no runner's behalf", d.Format(), mem, calc.SourceIO.BytesRead)
			}
			for _, w := range calc.Workers {
				var want int64
				for lo := w.Range.Lo; lo < w.Range.Hi; lo += uint64(mem) {
					hi := min(lo+uint64(mem), w.Range.Hi)
					if d.ByteOffs != nil {
						want += listBytes(d.VertexAt(lo), d.VertexAt(hi-1)+1)
					} else {
						want += int64(hi-lo) * graph.EntrySize
					}
					first := graph.Vertex(0)
					if d.Meta.Ranked {
						first = d.VertexAt(lo)
					}
					want += listBytes(first, graph.Vertex(d.NumVertices()))
					for v := first; int(v) < d.NumVertices(); v++ {
						if d.Offsets[v] >= lo && d.Offsets[v+1] <= hi {
							want -= listBytes(v, v+1)
						}
					}
				}
				if w.Stats.IO.BytesRead != want {
					t.Errorf("%s ranked=%v M=%d runner %d: read %d bytes, want %d", d.Format(), d.Meta.Ranked, mem, w.Worker, w.Stats.IO.BytesRead, want)
				}
			}
		}
	}
}

// TestPaperLayoutTrace: under the paper's layout every range's run keeps the
// runner index the engine stamps on its cursor — one chunk span per range,
// carrying its index — and each of its windows is one scan.round span, so a
// trace has as many rounds as the runners have passes.
func TestPaperLayoutTrace(t *testing.T) {
	g, err := gen.PowerLaw(600, 6000, 2.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedDisk(t, g)
	const P = 3
	tr := obs.NewTrace(0)
	ctx := obs.ContextWithCursor(context.Background(), obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	calc, err := RunRanges(ctx, d, equalSplit(d, P), Options{MemEdges: int(d.Meta.AdjEntries)/10 + 1, Scan: scan.SourceBuffered})
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	for _, w := range calc.Workers {
		passes += w.Stats.Passes
	}
	var chunks []int32
	rounds := 0
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case obs.SpanChunk:
			chunks = append(chunks, sp.Worker)
		case obs.SpanScanRound:
			rounds++
		}
	}
	slices.Sort(chunks)
	if !slices.Equal(chunks, []int32{0, 1, 2}) {
		t.Errorf("chunk spans carry workers %v, want one per range: [0 1 2]", chunks)
	}
	if rounds != passes {
		t.Errorf("%d scan.round spans for %d passes", rounds, passes)
	}
}
