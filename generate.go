package pdtl

import (
	"context"
	"io"
	"os"

	"pdtl/internal/extsort"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// GraphInfo summarizes a graph store (the columns of the paper's Table I).
type GraphInfo struct {
	Name        string
	NumVertices int
	NumEdges    uint64
	AvgDegree   float64
	StdDegree   float64
	MaxDegree   uint32
	Oriented    bool
	// MaxOutDegree is d*max for oriented stores (0 otherwise).
	MaxOutDegree uint32
	// Ranked reports an oriented store in rank space: vertices numbered by
	// the degree-based order counting down, hubs first, with <base>.perm
	// mapping them back. Every id a run hands out is an original one
	// either way.
	Ranked bool
}

// Info reads the metadata and degree statistics of the store at base. With
// an open handle, prefer (*Graph).Info, which computed the same once at
// Open.
func Info(base string) (GraphInfo, error) {
	d, err := graph.Open(base)
	if err != nil {
		return GraphInfo{}, err
	}
	return infoFrom(d), nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method; avoids importing math for one call site.
	z := x
	for i := 0; i < 32; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// WriteGraph builds a simple undirected graph on n vertices from an edge
// list (duplicates, reverses and self-loops are cleaned up) and writes it
// to the store at base.
func WriteGraph(base, name string, n int, edges [][2]uint32) (GraphInfo, error) {
	converted := make([]graph.Edge, len(edges))
	for i, e := range edges {
		converted[i] = graph.Edge{U: e[0], V: e[1]}
	}
	g, err := graph.FromEdges(n, converted)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, name, g)
}

func writeStore(base, name string, g *graph.CSR) (GraphInfo, error) {
	if err := graph.WriteCSR(base, name, g); err != nil {
		return GraphInfo{}, err
	}
	return Info(base)
}

// GenerateRMAT writes an R-MAT graph (2^scale vertices, edgeFactor·2^scale
// edge samples before simplification) to the store at base — the paper's
// scale-free synthetic family.
func GenerateRMAT(base string, scale uint, edgeFactor int, seed int64) (GraphInfo, error) {
	g, err := gen.RMAT(scale, edgeFactor, seed)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, "rmat", g)
}

// GenerateErdosRenyi writes a uniform random graph to the store at base.
func GenerateErdosRenyi(base string, n, m int, seed int64) (GraphInfo, error) {
	g, err := gen.ErdosRenyi(n, m, seed)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, "erdos-renyi", g)
}

// GenerateComplete writes the complete graph K_n to the store at base; it
// has exactly n·(n-1)·(n-2)/6 triangles, which makes it a convenient
// correctness anchor.
func GenerateComplete(base string, n int) (GraphInfo, error) {
	g, err := gen.Complete(n)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, "complete", g)
}

// GenerateCommunity writes a power-law graph with planted community
// structure (high triangle density, like the paper's Orkut/LiveJournal
// social datasets). n vertices, m edge samples, communities groups;
// intraProb is the fraction of edges kept inside a community.
func GenerateCommunity(base string, n, m, communities int, intraProb float64, seed int64) (GraphInfo, error) {
	g, err := gen.Community(n, m, gen.CommunityParams{
		Communities: communities,
		IntraProb:   intraProb,
		Exponent:    2.5,
	}, seed)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, "community", g)
}

// GeneratePowerLaw writes a Chung–Lu power-law graph with the given
// exponent (lower = heavier tail).
func GeneratePowerLaw(base string, n, m int, exponent float64, seed int64) (GraphInfo, error) {
	g, err := gen.PowerLaw(n, m, exponent, seed)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, "powerlaw", g)
}

// StreamParams parameterize GenerateStream (see gen.StreamParams).
type StreamParams = gen.StreamParams

// StreamBatch is one churn batch of a generated mutation trace, JSON-shaped
// like the service's POST /v1/graphs/{name}/edges body.
type StreamBatch = gen.Batch

// GenerateStream writes a reproducible churn workload: the initial
// power-law store at base, and the NDJSON mutation trace (one batch per
// line) to w. When finalBase is non-empty, the store the trace converges to
// — the initial graph with every batch applied — is written there too, so
// an overlay that replayed the trace can be checked against a from-scratch
// build. Everything is a pure function of the params' seed.
func GenerateStream(base string, w io.Writer, finalBase string, p StreamParams) (GraphInfo, error) {
	csr, batches, final, err := gen.Stream(p)
	if err != nil {
		return GraphInfo{}, err
	}
	info, err := writeStore(base, "powerlaw", csr)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := gen.WriteTrace(w, batches); err != nil {
		return GraphInfo{}, err
	}
	if finalBase != "" {
		// One fresh vertex becomes eligible per batch, so the final graph
		// lives on at most N+Batches vertices.
		fg, err := graph.FromEdges(p.N+p.Batches, final)
		if err != nil {
			return GraphInfo{}, err
		}
		if _, err := writeStore(finalBase, "powerlaw-churned", fg); err != nil {
			return GraphInfo{}, err
		}
	}
	return info, nil
}

// ConvertStoreFormat re-encodes the store at src into dst with the named
// adjacency format ("plain" or "compressed"); the logical graph — and
// therefore every triangle listing over it — is unchanged. src and dst may
// be equal: the two encodings live in different files (.adj vs
// .cadj/.cidx), so an in-place conversion writes the new encoding next to
// the old one and then removes the stale files.
func ConvertStoreFormat(src, dst, format string) (GraphInfo, error) {
	f, err := graph.ParseFormat(format)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := graph.ConvertStore(src, dst, f); err != nil {
		return GraphInfo{}, err
	}
	if src == dst {
		stale := []string{graph.CAdjPath(src), graph.CIdxPath(src)}
		if f == graph.FormatCompressed {
			stale = []string{graph.AdjPath(src)}
		}
		for _, p := range stale {
			if err := os.Remove(p); err != nil {
				return GraphInfo{}, err
			}
		}
	}
	return Info(dst)
}

// Degrees reads the per-vertex degree array of the store at base (degrees
// of G for undirected stores, out-degrees of G* for oriented ones).
func Degrees(base string) ([]uint32, error) {
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	return d.Degrees, nil
}

// ImportEdgeListText ingests a whitespace-separated text edge list (SNAP
// format: "u v" per line, '#' comments) into the store at base.
func ImportEdgeListText(r io.Reader, base, name string) (GraphInfo, error) {
	edges, n, err := graph.ReadEdgeListText(r)
	if err != nil {
		return GraphInfo{}, err
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return GraphInfo{}, err
	}
	return writeStore(base, name, g)
}

// ImportEdgeFileBinaryFormat ingests a binary edge file (little-endian
// uint32 pairs) into the store at base, in the named format ("plain",
// "compressed", or "" for plain), using the external-memory pipeline: one
// pass over the input mirrors every edge into radix-sorted runs, the runs
// are merged, and the deduplicated store is emitted from the sorted stream
// (a compressed store segment-encodes each list as it streams off the
// sort). A run is sorted by up to GOMAXPROCS workers, each given at least
// 64 K keys, and the store is the same at any worker count. At most
// memEdges records (8 bytes each) are held in memory while sorting,
// scratch included. This is the O(sort(E)) path of Theorem IV.2 and the
// way to ingest graphs larger than RAM. Cancelling ctx aborts the
// ingest between record batches (within ~128k records, or one spilled run,
// at any pipeline stage) and returns ctx.Err(); the run files are cleaned
// up, a partially written store at base may remain.
func ImportEdgeFileBinaryFormat(ctx context.Context, edgeFile, base, name string, memEdges int, format string) (GraphInfo, error) {
	f, err := graph.ParseFormat(format)
	if err != nil {
		return GraphInfo{}, err
	}
	if err := extsort.BuildStoreFormat(ctx, edgeFile, base, name, memEdges, f, nil); err != nil {
		return GraphInfo{}, err
	}
	return Info(base)
}
