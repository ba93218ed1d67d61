package core

import (
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
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// TestWindowAwareRunsMatchBaseline is the differential check of the
// window-aware planner, the header-pruned pass and the runners' default
// cone routine: the engine end to end (orient, plan for M, run) against
// internal/baseline, for both store formats, both schedules, cooperative
// windows and the paper's layout (under the shared scan), and windows of
// the whole store, a third of it, a 48th, and fewer entries than the
// largest out-list (the large-vertex path) — the count of a counting run
// and the order-normalised listing of a listing run, whose every sink must
// under a named source also receive the very sequence an explicit merge
// kernel gives it.
func TestWindowAwareRunsMatchBaseline(t *testing.T) {
	g, err := gen.PowerLaw(2000, 24000, 1.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	var wantList [][3]graph.Vertex
	baseline.ForwardList(g, func(u, v, w graph.Vertex) { wantList = append(wantList, [3]graph.Vertex{u, v, w}) })
	sortTriangles(wantList)

	const workers = 3
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		base := filepath.Join(t.TempDir(), "g")
		if err := graph.WriteCSR(base, "g", g); err != nil {
			t.Fatal(err)
		}
		// The first run orients; its store tells the window sizes.
		first, err := Process(context.Background(), base, Options{Workers: workers, Strategy: balance.InDegree, Store: format, KeepOriented: true})
		if err != nil {
			t.Fatal(err)
		}
		d, err := graph.Open(first.OrientedBase)
		if err != nil {
			t.Fatal(err)
		}
		if d.Format() != format {
			t.Fatalf("oriented store is %s, want %s", d.Format(), format)
		}
		total := int(d.Meta.AdjEntries)
		for _, mem := range []int{total, total / 3, total / 48, int(d.Meta.MaxOutDegree) - 1} {
			for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
				for _, src := range []scan.SourceKind{scan.SourceAuto, scan.SourceShared} {
					label := fmt.Sprintf("%s/%s/%s/M=%d", format, mode, src, mem)
					opt := Options{Workers: workers, MemEdges: mem, Strategy: balance.InDegree, Sched: mode, Scan: src}
					res, err := Process(context.Background(), first.OrientedBase, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.Triangles != want {
						t.Errorf("%s: counted %d triangles, baseline %d", label, res.Triangles, want)
					}
					if src.IsAuto() {
						// One window of P·M entries, every runner in every round.
						windows := (total + workers*mem - 1) / (workers * mem)
						if got := res.TotalStats().Passes; res.Plan.Windows != uint64(windows) || got != workers*windows {
							t.Errorf("%s: plan says %d windows, the runners made %d passes; want %d and %d", label, res.Plan.Windows, got, windows, workers*windows)
						}
					} else {
						if mem < int(d.Meta.MaxOutDegree) && res.TotalStats().LargeVertices == 0 {
							t.Errorf("%s: no cone vertex took the large-vertex path", label)
						}
						// With a window or more per range, cuts sit on window
						// boundaries and no pass is spent on a partial window.
						windows := (total + mem - 1) / mem
						if got := res.TotalStats().Passes; windows >= len(res.Plan.Ranges) && got != windows {
							t.Errorf("%s: %d passes over %d windows — a range ends in a partial window", label, got, windows)
						}
					}

					var merged []*recordingSink
					for _, kern := range []mgt.KernelKind{mgt.KernelMerge, mgt.KernelAuto} {
						recs := make([]*recordingSink, workers)
						opt.Sinks = make([]mgt.Sink, len(recs))
						for i := range recs {
							recs[i] = &recordingSink{}
							opt.Sinks[i] = recs[i]
						}
						opt.Kernel = kern
						if _, err := Process(context.Background(), first.OrientedBase, opt); err != nil {
							t.Fatalf("%s/%s listing: %v", label, kern, err)
						}
						var got [][3]graph.Vertex
						for i, rec := range recs {
							// (Which runner of a cooperative window is dealt
							// which block is timing.)
							if merged != nil && !src.IsAuto() && !slices.Equal(rec.tris, merged[i].tris) {
								t.Errorf("%s: sink %d received %d triangles, %d under the merge kernel, or in another order", label, i, len(rec.tris), len(merged[i].tris))
							}
							got = append(got, rec.tris...)
						}
						merged = recs
						sortTriangles(got)
						if !slices.Equal(got, wantList) {
							t.Errorf("%s/%s: listing of %d triangles differs from the baseline's %d", label, kern, len(got), len(wantList))
						}
					}
				}
			}
		}
	}
}

func sortTriangles(tris [][3]graph.Vertex) {
	slices.SortFunc(tris, func(a, b [3]graph.Vertex) int { return slices.Compare(a[:], b[:]) })
}
