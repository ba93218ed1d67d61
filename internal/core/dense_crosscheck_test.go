package core_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/live"
	"pdtl/internal/mgt"
	"pdtl/internal/orient"
)

// run is one listing run: its bytes and its stats summed over the runners.
type run struct {
	listing []byte
	stats   mgt.Stats
}

// listOn lists d under the default source with opt, through the live
// graph lg if it is not nil, and returns the listing in d's own ids.
func listOn(t *testing.T, label string, d *graph.Disk, lg *live.Graph, opt core.Options) run {
	t.Helper()
	var buf bytes.Buffer
	opt.Out = &buf
	var workers []core.WorkerStat
	if lg != nil {
		res, _, err := lg.Count(context.Background(), opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		workers = res.Workers
	} else {
		plan, err := core.LocalPlan(d, d.Base, opt)
		if err != nil {
			t.Fatal(err)
		}
		calc, err := core.RunRanges(context.Background(), d, plan.Ranges, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		workers = calc.Workers
	}
	var out run
	for _, w := range workers {
		out.stats = out.stats.Add(w.Stats)
	}
	out.listing = buf.Bytes()
	if uint64(len(out.listing)) != 12*out.stats.Triangles {
		t.Fatalf("%s: a %d-byte listing for %d triangles", label, len(out.listing), out.stats.Triangles)
	}
	return out
}

// trianglesIn decodes a listing, renames its vertices through ids (nil: as
// they are) and returns its triangles as sorted id triples, sorted.
func trianglesIn(t *testing.T, listing []byte, ids []graph.Vertex) [][3]graph.Vertex {
	t.Helper()
	tris, err := mgt.ReadTriangles(bytes.NewReader(listing))
	if err != nil {
		t.Fatal(err)
	}
	for i := range tris {
		if ids != nil {
			for k, v := range tris[i] {
				tris[i][k] = ids[v]
			}
		}
		slices.Sort(tris[i][:])
	}
	slices.SortFunc(tris, func(a, b [3]graph.Vertex) int { return slices.Compare(a[:], b[:]) })
	return tris
}

// markSteps is what the mark path takes on the ranked store csr with
// windows of win entries: per window, per cone vertex u from the window's
// first on with two entries or more and a pivot source in the window, d+(u)
// stamps and a probe per entry of every in-window Ev.
func markSteps(csr *graph.CSR, win uint64) (steps uint64) {
	total := csr.Offsets[csr.NumVertices()]
	for lo := uint64(0); lo < total; lo += win {
		hi := min(lo+win, total)
		for u := 0; u < csr.NumVertices(); u++ {
			nu := csr.Neighbors(graph.Vertex(u))
			if csr.Offsets[u+1] <= lo || len(nu) < 2 {
				continue
			}
			var probes uint64
			for _, v := range nu {
				probes += min(csr.Offsets[v+1], hi) - min(max(csr.Offsets[v], lo), min(csr.Offsets[v+1], hi))
			}
			if probes > 0 {
				steps += uint64(len(nu)) + probes
			}
		}
	}
	return steps
}

// TestCrosscheckDenseAndMarkPaths pins the dense window lists against the
// mark path across store kinds. A ranked store, plain or compressed, runs
// its dense lists on bitsets; a live merged view of that store (in
// original ids, not ranked) and an id-space store of the same graph (no
// .perm) run every pair on the mark path. At every P ∈ {1, 2, 4}, over
// three windows: each store counts the baseline's triangles; the two ranked
// stores list the same bytes, with the same pairs, passes and loads; the
// live view and the id-space store list the same triangles; and the bitsets
// fired — the ranked store took fewer steps than the mark path's
// d+(u) + Σ|Ev| on it (as many, on a clique).
func TestCrosscheckDenseAndMarkPaths(t *testing.T) {
	graphs := []struct {
		name string
		g    func() (*graph.CSR, error)
		// A clique's N(u) holds every id below v, so its pairs take as many
		// bit tests (j) as probes (|Ev|): no fewer steps.
		same bool
	}{
		{"powerlaw", func() (*graph.CSR, error) { return gen.PowerLaw(1500, 20000, 2.0, 11) }, false},
		{"rmat", func() (*graph.CSR, error) { return gen.RMAT(10, 12, 3) }, false},
		{"k40", func() (*graph.CSR, error) { return gen.Complete(40) }, true},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Forward(g)
			dir := t.TempDir()
			src := filepath.Join(dir, "g")
			if err := graph.WriteCSR(src, "g", g); err != nil {
				t.Fatal(err)
			}
			open := func(base string) *graph.Disk {
				d, err := graph.Open(base)
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			if _, err := orient.Orient(src, src+".oriented", 2); err != nil {
				t.Fatal(err)
			}
			ranked := open(src + ".oriented")
			if err := graph.ConvertStore(ranked.Base, ranked.Base+".compressed", graph.FormatCompressed); err != nil {
				t.Fatal(err)
			}
			compressed := open(ranked.Base + ".compressed")
			if err := graph.WriteCSR(src+".idspace", "g", orient.CSR(g)); err != nil {
				t.Fatal(err)
			}
			idSpace := open(src + ".idspace")
			lg, err := live.FromDisk(ranked, ranked.Base, live.Config{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lg.Close() })
			csr, err := ranked.LoadCSR()
			if err != nil {
				t.Fatal(err)
			}
			perm, err := ranked.Perm()
			if err != nil || !ranked.Meta.Ranked || idSpace.Meta.Ranked {
				t.Fatalf("ranked %v, id space %v: %v", ranked.Meta.Ranked, idSpace.Meta.Ranked, err)
			}

			total := int(ranked.Meta.AdjEntries)
			for _, p := range []int{1, 2, 4} {
				mem := total/(3*p) + 1 // three windows
				stores := []struct {
					name string
					d    *graph.Disk
					lg   *live.Graph
				}{{"ranked", ranked, nil}, {"compressed", compressed, nil}, {"live", ranked, lg}, {"idspace", idSpace, nil}}
				runs := map[string]run{}
				for _, s := range stores {
					label := fmt.Sprintf("P=%d %s", p, s.name)
					got := listOn(t, label, s.d, s.lg, core.Options{Workers: p, MemEdges: mem})
					if got.stats.Triangles != want {
						t.Fatalf("%s: %d triangles, baseline %d", label, got.stats.Triangles, want)
					}
					runs[s.name] = got
				}
				if c, r := runs["compressed"], runs["ranked"]; !bytes.Equal(c.listing, r.listing) {
					t.Fatalf("P=%d: the compressed store lists other bytes than the plain one", p)
				} else if c.stats.Intersections != r.stats.Intersections || c.stats.Passes != r.stats.Passes || c.stats.EdgesLoaded != r.stats.EdgesLoaded {
					t.Fatalf("P=%d: the compressed store's %+v, the plain one's %+v", p, c.stats, r.stats)
				}
				original := trianglesIn(t, runs["ranked"].listing, perm)
				for _, name := range []string{"live", "idspace"} {
					if !slices.Equal(trianglesIn(t, runs[name].listing, nil), original) {
						t.Fatalf("P=%d: the %s store lists other triangles", p, name)
					}
				}
				if dense, mark := runs["ranked"].stats.CmpOps, markSteps(csr, uint64(p*mem)); dense > mark || (dense == mark) != tc.same {
					t.Errorf("P=%d: the ranked store took %d steps, d+(u) + Σ|Ev| is %d: no bitset fired", p, dense, mark)
				}
			}
		})
	}
}
