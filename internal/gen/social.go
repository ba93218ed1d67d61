package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pdtl/internal/graph"
)

// PowerLaw generates a Chung–Lu style random graph whose expected degree
// sequence follows a power law with the given exponent (typically 2–3 for
// social networks). n is the vertex count and m the number of edge samples.
// Higher exponents give lighter tails. This is the structural stand-in for
// the LiveJournal and Orkut datasets of Table I.
func PowerLaw(n, m int, exponent float64, seed int64) (*graph.CSR, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("gen: bad sizes n=%d m=%d", n, m)
	}
	if exponent <= 1 {
		return nil, fmt.Errorf("gen: power-law exponent %g must exceed 1", exponent)
	}
	rng := rand.New(rand.NewSource(seed))
	// Weight w_i ∝ (i+1)^(-1/(exponent-1)); cumulative table for sampling.
	cum := make([]float64, n)
	var total float64
	alpha := -1.0 / (exponent - 1)
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), alpha)
		cum[i] = total
	}
	sample := func() uint32 {
		r := rng.Float64() * total
		return uint32(sort.SearchFloat64s(cum, r))
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: sample(), V: sample()})
	}
	return graph.FromEdges(n, edges)
}

// CommunityParams tunes the community stand-in generator.
type CommunityParams struct {
	// Communities is the number of dense groups.
	Communities int
	// IntraProb is the probability that a sampled edge stays inside the
	// community of its first endpoint (high values → many triangles).
	IntraProb float64
	// Exponent is the power-law exponent of the global degree sequence.
	Exponent float64
}

// Community generates a power-law graph with planted community structure:
// most sampled edges connect vertices of the same community, producing the
// high triangle density of social graphs like Orkut. n vertices, m samples.
func Community(n, m int, p CommunityParams, seed int64) (*graph.CSR, error) {
	if p.Communities <= 0 {
		return nil, fmt.Errorf("gen: need at least one community")
	}
	if p.Exponent <= 1 {
		return nil, fmt.Errorf("gen: exponent %g must exceed 1", p.Exponent)
	}
	rng := rand.New(rand.NewSource(seed))
	comm := make([]int, n)
	for i := range comm {
		comm[i] = rng.Intn(p.Communities)
	}
	members := make([][]uint32, p.Communities)
	for v, c := range comm {
		members[c] = append(members[c], uint32(v))
	}
	cum := make([]float64, n)
	var total float64
	alpha := -1.0 / (p.Exponent - 1)
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), alpha)
		cum[i] = total
	}
	sample := func() uint32 {
		r := rng.Float64() * total
		return uint32(sort.SearchFloat64s(cum, r))
	}
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := sample()
		var v uint32
		if rng.Float64() < p.IntraProb {
			group := members[comm[u]]
			if len(group) > 0 {
				v = group[rng.Intn(len(group))]
			} else {
				v = sample()
			}
		} else {
			v = sample()
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return graph.FromEdges(n, edges)
}
