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
)

// TestWindowAwareRunsMatchBaseline is the differential check of the
// window-aware planner, the header-pruned pass and the runners' default
// cone routine: the engine end to end (orient, plan for M, run) against
// internal/baseline, for both store formats, cooperative windows and the
// paper's layout, and windows of
// the whole store, a third of it, a 48th, and fewer entries than the
// largest out-list (the large-vertex path) — the count of a counting run
// and the order-normalised listing of a listing run.
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
			for _, src := range []scan.SourceKind{scan.SourceAuto, scan.SourceBuffered} {
				label := fmt.Sprintf("%s/%s/M=%d", format, src, mem)
				opt := Options{Workers: workers, MemEdges: mem, Strategy: balance.InDegree, Scan: src}
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

				recs := make([]*recordingSink, workers)
				opt.Sinks = make([]mgt.Sink, len(recs))
				for i := range recs {
					recs[i] = &recordingSink{}
					opt.Sinks[i] = recs[i]
				}
				if _, err := Process(context.Background(), first.OrientedBase, opt); err != nil {
					t.Fatalf("%s listing: %v", label, err)
				}
				var got [][3]graph.Vertex
				for _, rec := range recs {
					got = append(got, rec.tris...)
				}
				sortTriangles(got)
				if !slices.Equal(got, wantList) {
					t.Errorf("%s: listing of %d triangles differs from the baseline's %d", label, len(got), len(wantList))
				}
			}
		}
	}
}

func sortTriangles(tris [][3]graph.Vertex) {
	slices.SortFunc(tris, func(a, b [3]graph.Vertex) int { return slices.Compare(a[:], b[:]) })
}
