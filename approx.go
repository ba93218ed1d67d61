package pdtl

import "pdtl/internal/approx"

// The approximate entry points implement one of the extensions the paper's
// conclusion proposes as future work ("altering it for dynamic or
// approximate triangle counting", Section VI); LiveGraph is the dynamic one.

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
