package graph

// MinDegreeSum computes Σ_{(u,v)∈E} min{d(u), d(v)} over the undirected
// edges of g, the arboricity-related quantity of Theorem III.4(3). The
// number of triangles satisfies T ≤ MinDegreeSum/3.
func MinDegreeSum(g *CSR) uint64 {
	var sum uint64
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		du := uint64(g.Degree(Vertex(u)))
		for _, v := range g.Neighbors(Vertex(u)) {
			if Vertex(u) < v { // count each undirected edge once
				dv := uint64(g.Degree(v))
				if du < dv {
					sum += du
				} else {
					sum += dv
				}
			}
		}
	}
	return sum
}

// OrderingSum computes Σ_v d_G(v)·d_G*(v), the quantity bounded by O(α|E|)
// in Theorem IV.1, given the undirected graph and its orientation's
// out-degree array.
func OrderingSum(g *CSR, outDeg []uint32) uint64 {
	var sum uint64
	for v := 0; v < g.NumVertices(); v++ {
		sum += uint64(g.Degree(Vertex(v))) * uint64(outDeg[v])
	}
	return sum
}
