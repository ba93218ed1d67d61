package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pdtl/internal/graph"
)

func TestRMATDeterministic(t *testing.T) {
	a, err := RMAT(8, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RMAT(8, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() || a.AdjEntries() != b.AdjEntries() {
		t.Errorf("same seed produced different graphs: %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
	for i := range a.Adj {
		if a.Adj[i] != b.Adj[i] {
			t.Fatalf("adjacency differs at %d", i)
		}
	}
	c, err := RMAT(8, 8, 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() == a.NumEdges() && len(c.Adj) == len(a.Adj) {
		same := true
		for i := range c.Adj {
			if c.Adj[i] != a.Adj[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestRMATShape(t *testing.T) {
	g, err := RMAT(10, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 1024 {
		t.Errorf("NumVertices = %d, want 1024", g.NumVertices())
	}
	// Simplification removes duplicates, but the graph should retain a
	// large fraction of the 16*1024 samples.
	if g.NumEdges() < 4*1024 {
		t.Errorf("NumEdges = %d, too much loss", g.NumEdges())
	}
	// Scale-free: max degree far above average.
	if maxDeg, avg := degreeSkew(g); float64(maxDeg) < 5*avg {
		t.Errorf("RMAT not skewed: max=%d avg=%.1f", maxDeg, avg)
	}
}

// degreeSkew returns the largest degree of undirected g and the average,
// 2|E|/n.
func degreeSkew(g *graph.CSR) (maxDeg uint32, avg float64) {
	return g.MaxDegree(), 2 * float64(g.NumEdges()) / float64(g.NumVertices())
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(31, 2, 1); err == nil {
		t.Error("want error for scale > 30")
	}
	bad := RMATParams{A: 0.5, B: 0.5, C: 0.5, D: 0.5}
	if _, err := RMATWithParams(4, 2, bad, 1); err == nil {
		t.Error("want error for parameters not summing to 1")
	}
}

func TestCompleteAndGridCounts(t *testing.T) {
	k6, err := Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if k6.NumEdges() != 15 {
		t.Errorf("K6 edges = %d, want 15", k6.NumEdges())
	}
	if CompleteTriangles(6) != 20 {
		t.Errorf("CompleteTriangles(6) = %d, want 20", CompleteTriangles(6))
	}
	if CompleteTriangles(2) != 0 {
		t.Error("CompleteTriangles(2) should be 0")
	}

	grid, err := Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 4x3 grid: 3*3 horizontal + 4*2 vertical = 17 edges.
	if grid.NumEdges() != 17 {
		t.Errorf("Grid(4,3) edges = %d, want 17", grid.NumEdges())
	}

	tg, err := TriGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 3x3: 6 horizontal + 6 vertical + 4 diagonal = 16 edges.
	if tg.NumEdges() != 16 {
		t.Errorf("TriGrid(3,3) edges = %d, want 16", tg.NumEdges())
	}
	if TriGridTriangles(3, 3) != 8 {
		t.Errorf("TriGridTriangles(3,3) = %d, want 8", TriGridTriangles(3, 3))
	}
	if TriGridTriangles(1, 5) != 0 {
		t.Error("degenerate TriGrid should have 0 triangles")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(100, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 100 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 400 {
		t.Errorf("NumEdges = %d, want (0, 400]", g.NumEdges())
	}
	if _, err := ErdosRenyi(-1, 5, 0); err == nil {
		t.Error("want error for negative n")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g, err := PowerLaw(2000, 16000, 2.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if maxDeg, avg := degreeSkew(g); float64(maxDeg) < 4*avg {
		t.Errorf("power law not skewed: max=%d avg=%.1f", maxDeg, avg)
	}
	if _, err := PowerLaw(10, 5, 0.5, 1); err == nil {
		t.Error("want error for exponent <= 1")
	}
}

func TestCommunityTriangleDensity(t *testing.T) {
	// With strong communities the clustering (triangles per wedge) should
	// be clearly higher than a same-size uniform random graph.
	comm, err := Community(1500, 12000, CommunityParams{Communities: 30, IntraProb: 0.9, Exponent: 2.5}, 9)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyi(1500, 12000, 9)
	if err != nil {
		t.Fatal(err)
	}
	tComm := countRef(comm)
	tER := countRef(er)
	if tComm <= tER {
		t.Errorf("community graph should have more triangles: community=%d uniform=%d", tComm, tER)
	}
	if _, err := Community(10, 5, CommunityParams{Communities: 0, Exponent: 2}, 1); err == nil {
		t.Error("want error for zero communities")
	}
}

// countRef is a local edge-iterator reference counter (kept local to avoid
// an import cycle with the baseline package's tests).
func countRef(g *graph.CSR) uint64 {
	var count uint64
	for u := 0; u < g.NumVertices(); u++ {
		nu := g.Neighbors(graph.Vertex(u))
		for _, v := range nu {
			if v <= graph.Vertex(u) {
				continue
			}
			nv := g.Neighbors(v)
			i, j := 0, 0
			for i < len(nu) && j < len(nv) {
				switch {
				case nu[i] < nv[j]:
					i++
				case nu[i] > nv[j]:
					j++
				default:
					if nu[i] > v {
						count++
					}
					i++
					j++
				}
			}
		}
	}
	return count
}

// Property: every generator output is simple and symmetric.
func TestGeneratorsProduceSimpleGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.CSR
		var err error
		switch rng.Intn(4) {
		case 0:
			g, err = RMAT(uint(4+rng.Intn(5)), 1+rng.Intn(8), seed)
		case 1:
			g, err = ErdosRenyi(5+rng.Intn(60), rng.Intn(200), seed)
		case 2:
			g, err = PowerLaw(5+rng.Intn(60), rng.Intn(200), 2.0+rng.Float64(), seed)
		default:
			g, err = Community(5+rng.Intn(60), rng.Intn(200), CommunityParams{Communities: 1 + rng.Intn(4), IntraProb: rng.Float64(), Exponent: 2.5}, seed)
		}
		if err != nil {
			return false
		}
		for v := 0; v < g.NumVertices(); v++ {
			list := g.Neighbors(graph.Vertex(v))
			for i, w := range list {
				if w == graph.Vertex(v) || (i > 0 && list[i-1] >= w) || !g.HasEdge(w, graph.Vertex(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
