package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
)

// tripleSet sorts each triple's vertices, then the triples: a listing as a
// set.
func tripleSet(ts [][3]graph.Vertex) [][3]graph.Vertex {
	out := slices.Clone(ts)
	for i := range out {
		slices.Sort(out[i][:])
	}
	slices.SortFunc(out, func(a, b [3]graph.Vertex) int { return slices.Compare(a[:], b[:]) })
	return out
}

// TestCountInvariantUnderRelabeling: the triangle count is a property of
// the graph, not of how it was written down. Renaming the vertices by a
// random permutation, flipping edge directions and shuffling the edge order
// changes every degree-rank tie-break of the orientation (ties fall to the
// vertex id), every out-list, every window and every plan — and must never
// change the count. The graphs are chosen for their ties: a clique and a
// grid, where almost every rank comparison is decided by id, beside two
// random graphs. Every trial orients through the store (the ranked
// OrientFormat) and also lists: the listing, read as a set of triples in the
// ids the store was written with, is baseline.ForwardList's.
func TestCountInvariantUnderRelabeling(t *testing.T) {
	graphs := []struct {
		name string
		g    func() (*graph.CSR, error)
	}{
		{"k24", func() (*graph.CSR, error) { return gen.Complete(24) }},
		{"trigrid", func() (*graph.CSR, error) { return gen.TriGrid(8, 8) }},
		{"er", func() (*graph.CSR, error) { return gen.ErdosRenyi(150, 1200, 4) }},
		{"powerlaw", func() (*graph.CSR, error) { return gen.PowerLaw(300, 3000, 2.0, 8) }},
	}
	rng := rand.New(rand.NewSource(14))
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.g()
			if err != nil {
				t.Fatal(err)
			}
			want := baseline.Forward(g)
			n := g.NumVertices()
			for trial := 0; trial < 6; trial++ {
				perm := rng.Perm(n)
				edges := g.Edges()
				for i, e := range edges {
					u, v := graph.Vertex(perm[e.U]), graph.Vertex(perm[e.V])
					if rng.Intn(2) == 0 {
						u, v = v, u
					}
					edges[i] = graph.Edge{U: u, V: v}
				}
				rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
				h, err := graph.FromEdges(n, edges)
				if err != nil {
					t.Fatal(err)
				}
				base := filepath.Join(t.TempDir(), "g")
				if err := graph.WriteCSR(base, "g", h); err != nil {
					t.Fatal(err)
				}
				opt := Options{
					Workers:  1 + rng.Intn(4),
					MemEdges: 1 + rng.Intn(2*len(edges)),
					Strategy: balance.InDegree,
					Store:    []graph.Format{graph.FormatPlain, graph.FormatCompressed}[trial/2%2],
				}
				label := fmt.Sprintf("trial %d (P=%d M=%d %s)", trial, opt.Workers, opt.MemEdges, opt.Store)
				res, err := Process(context.Background(), base, opt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Triangles != want {
					t.Errorf("%s: relabeled graph has %d triangles, the original %d", label, res.Triangles, want)
				}
				var out bytes.Buffer
				opt.Out = &out
				if _, err := Process(context.Background(), res.OrientedBase, opt); err != nil {
					t.Fatalf("%s: list: %v", label, err)
				}
				tris, err := mgt.ReadTriangles(&out)
				if err != nil {
					t.Fatal(err)
				}
				var ref [][3]graph.Vertex
				baseline.ForwardList(h, func(u, v, w graph.Vertex) { ref = append(ref, [3]graph.Vertex{u, v, w}) })
				if !slices.Equal(tripleSet(tris), tripleSet(ref)) {
					t.Errorf("%s: listed %d triangles, not baseline's %d in the store's original ids", label, len(tris), len(ref))
				}
			}
		})
	}
}
