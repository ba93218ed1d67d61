package pdtl

import (
	"pdtl/internal/approx"
	"pdtl/internal/dynamic"
	"pdtl/internal/graph"
)

// The approximate and dynamic entry points implement the extensions the
// paper's conclusion proposes as future work ("altering it for dynamic or
// approximate triangle counting", Section VI).

// EstimateDoulion estimates the handle's triangle count with Doulion edge
// sparsification: each edge survives with probability p and the count on
// the sparsified graph is scaled by 1/p³ (unbiased). The graph is loaded
// into memory once per handle and cached; use the exact Count for graphs
// larger than RAM.
func (g *Graph) EstimateDoulion(p float64, seed int64) (estimate float64, err error) {
	csr, err := g.csrCached()
	if err != nil {
		return 0, err
	}
	est, _, err := approx.Doulion(csr, p, seed)
	return est, err
}

// EstimateWedges estimates the handle's triangle count by sampling
// `samples` uniform wedges and scaling their closure rate by the total
// wedge count over three. The in-memory graph is cached on the handle, so
// repeated estimates (e.g. at growing sample sizes) pay the load once.
func (g *Graph) EstimateWedges(samples int, seed int64) (estimate float64, err error) {
	csr, err := g.csrCached()
	if err != nil {
		return 0, err
	}
	return approx.WedgeSample(csr, samples, seed)
}

func loadCSR(base string) (*graph.CSR, error) {
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	return d.LoadCSR()
}

// DynamicCounter maintains an exact triangle count of a mutable undirected
// simple graph under edge insertions and deletions, at O(d(u)+d(v)) per
// update. It also tracks per-vertex triangle counts. Not safe for
// concurrent mutation.
type DynamicCounter struct {
	c *dynamic.Counter
}

// NewDynamicCounter creates an empty dynamic counter.
func NewDynamicCounter() *DynamicCounter {
	return &DynamicCounter{c: dynamic.New()}
}

// LoadDynamicCounter bulk-loads the graph store at base into a dynamic
// counter.
func LoadDynamicCounter(base string) (*DynamicCounter, error) {
	g, err := loadCSR(base)
	if err != nil {
		return nil, err
	}
	return &DynamicCounter{c: dynamic.FromCSR(g)}, nil
}

// Insert adds edge (u, v) and reports how many triangles it closed.
func (d *DynamicCounter) Insert(u, v uint32) (closed uint64, err error) {
	return d.c.Insert(u, v)
}

// Delete removes edge (u, v) and reports how many triangles it destroyed.
func (d *DynamicCounter) Delete(u, v uint32) (opened uint64, err error) {
	return d.c.Delete(u, v)
}

// Triangles reports the current exact count.
func (d *DynamicCounter) Triangles() uint64 { return d.c.Triangles() }

// Edges reports the current edge count.
func (d *DynamicCounter) Edges() uint64 { return d.c.Edges() }

// VertexTriangles reports the triangles incident to v.
func (d *DynamicCounter) VertexTriangles(v uint32) uint64 { return d.c.VertexTriangles(v) }
