// Package approx implements approximate triangle counting — the "altering
// it for ... approximate triangle counting" extension the paper's
// conclusion (Section VI) proposes as future work.
//
// Two standard estimators are provided, both built on the repository's own
// exact machinery so they inherit its external-memory behaviour:
//
//   - Doulion (Tsourakakis et al., KDD'09): keep every edge independently
//     with probability p, count exactly on the sparsified graph, and scale
//     by 1/p³. Unbiased; variance shrinks as the true count grows, so it
//     suits exactly the massive graphs PDTL targets.
//
//   - Wedge sampling (Seshadhri et al., SDM'13): estimate the closure
//     probability of uniformly random wedges (paths of length 2) and scale
//     by the total wedge count over 3. Accuracy is independent of graph
//     size for a fixed sample budget.
package approx

import (
	"fmt"
	"math/rand"
	"sort"

	"pdtl/internal/baseline"
	"pdtl/internal/graph"
)

// Doulion sparsifies g by keeping each undirected edge with probability p
// (deterministically under seed), counts the surviving triangles exactly,
// and returns the unbiased estimate count/p³ together with the sparsified
// edge count.
func Doulion(g *graph.CSR, p float64, seed int64) (estimate float64, keptEdges uint64, err error) {
	if p <= 0 || p > 1 {
		return 0, 0, fmt.Errorf("approx: keep probability %g out of (0,1]", p)
	}
	rng := rand.New(rand.NewSource(seed))
	kept := make([]graph.Edge, 0, int(float64(g.NumEdges())*p)+1)
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if graph.Vertex(u) < v && rng.Float64() < p {
				kept = append(kept, graph.Edge{U: graph.Vertex(u), V: v})
			}
		}
	}
	sparse, err := graph.FromEdges(g.NumVertices(), kept)
	if err != nil {
		return 0, 0, err
	}
	exact := baseline.Forward(sparse)
	return float64(exact) / (p * p * p), sparse.NumEdges(), nil
}

// WedgeSample estimates the triangle count by sampling `samples` uniform
// wedges and measuring their closure rate: T = closed/3 where closed is
// the number of closed wedges, so T̂ = (k̂/samples)·W/3 with W the total
// wedge count Σ d(v)·(d(v)-1)/2.
func WedgeSample(g *graph.CSR, samples int, seed int64) (estimate float64, err error) {
	if samples < 1 {
		return 0, fmt.Errorf("approx: need ≥ 1 sample, got %d", samples)
	}
	n := g.NumVertices()
	// Per-vertex wedge counts and their cumulative sum for proportional
	// sampling of wedge centers.
	cum := make([]float64, n)
	var totalWedges float64
	for v := 0; v < n; v++ {
		d := float64(g.Degree(graph.Vertex(v)))
		totalWedges += d * (d - 1) / 2
		cum[v] = totalWedges
	}
	if totalWedges == 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	closed := 0
	for i := 0; i < samples; i++ {
		r := rng.Float64() * totalWedges
		center := graph.Vertex(sort.SearchFloat64s(cum, r))
		list := g.Neighbors(center)
		a := rng.Intn(len(list))
		b := rng.Intn(len(list) - 1)
		if b >= a {
			b++
		}
		if g.HasEdge(list[a], list[b]) {
			closed++
		}
	}
	closureRate := float64(closed) / float64(samples)
	return closureRate * totalWedges / 3, nil
}
