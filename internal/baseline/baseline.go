// Package baseline provides exact in-memory triangle counters: the ground
// truth of the test suite and of `pdtl-gen baseline`, which CI's smoke jobs
// compare engine, cluster and service counts against.
//
// Three algorithms are provided, in increasing sophistication:
//
//   - BruteForce: O(n·d²) neighbor-pair enumeration; tiny graphs only.
//   - EdgeIterator: per-edge sorted intersection, the classic exact counter.
//   - Forward: the compact-forward algorithm (degree-ordered orientation +
//     out-list intersection), the standard fast in-memory method.
package baseline

import (
	"sort"

	"pdtl/internal/graph"
)

// BruteForce counts triangles by enumerating each vertex's neighbor pairs
// and testing the closing edge. Exact but quadratic in degree; use only for
// small graphs in tests.
func BruteForce(g *graph.CSR) uint64 {
	var count uint64
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		nu := g.Neighbors(graph.Vertex(u))
		for i := 0; i < len(nu); i++ {
			v := nu[i]
			if v <= graph.Vertex(u) {
				continue
			}
			for j := i + 1; j < len(nu); j++ {
				w := nu[j]
				if w <= v {
					continue
				}
				if g.HasEdge(v, w) {
					count++
				}
			}
		}
	}
	return count
}

// EdgeIterator counts triangles by intersecting the sorted neighbor lists
// of the endpoints of each undirected edge, counting only closing vertices
// above both endpoints so each triangle is counted once.
func EdgeIterator(g *graph.CSR) uint64 {
	var count uint64
	n := g.NumVertices()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if v <= graph.Vertex(u) {
				continue
			}
			count += intersectAbove(g.Neighbors(graph.Vertex(u)), g.Neighbors(v), v)
		}
	}
	return count
}

// intersectAbove counts common elements of sorted lists a and b strictly
// greater than floor.
func intersectAbove(a, b []graph.Vertex, floor graph.Vertex) uint64 {
	i := sort.Search(len(a), func(k int) bool { return a[k] > floor })
	j := sort.Search(len(b), func(k int) bool { return b[k] > floor })
	var count uint64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// Forward counts triangles with the compact-forward algorithm: orient every
// edge from lower to higher vertex in the degree-based order ≺ of
// Definition III.2, then for every oriented edge (u,v) intersect the sorted
// out-lists of u and v. Each triangle {u≺v≺w} is found exactly once, at its
// pivot edge — the same invariant MGT externalizes.
func Forward(g *graph.CSR) uint64 {
	var count uint64
	ForwardList(g, func(u, v, w graph.Vertex) { count++ })
	return count
}

// ForwardList is Forward in listing mode: fn is invoked once per triangle
// (u, v, w) with u ≺ v ≺ w in the degree-based order.
func ForwardList(g *graph.CSR, fn func(u, v, w graph.Vertex)) {
	n := g.NumVertices()
	deg := make([]uint32, n)
	for v := 0; v < n; v++ {
		deg[v] = uint32(g.Degree(graph.Vertex(v)))
	}
	less := func(a, b graph.Vertex) bool {
		if deg[a] != deg[b] {
			return deg[a] < deg[b]
		}
		return a < b
	}
	// Out-lists under ≺, each sorted by vertex id.
	out := make([][]graph.Vertex, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if less(graph.Vertex(u), v) {
				out[u] = append(out[u], v)
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range out[u] {
			a, b := out[u], out[v]
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					fn(graph.Vertex(u), v, a[i])
					i++
					j++
				}
			}
		}
	}
}

// LocalCounts returns the number of triangles incident to every vertex
// (each triangle contributes to all three corners), the per-vertex quantity
// behind the clustering-coefficient applications in the paper's
// introduction.
func LocalCounts(g *graph.CSR) []uint64 {
	counts := make([]uint64, g.NumVertices())
	ForwardList(g, func(u, v, w graph.Vertex) {
		counts[u]++
		counts[v]++
		counts[w]++
	})
	return counts
}
