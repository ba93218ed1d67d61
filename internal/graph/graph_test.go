package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// triangleK4 is the complete graph on 4 vertices.
func triangleK4(t *testing.T) *CSR {
	t.Helper()
	g, err := FromEdges(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := triangleK4(t)
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	if g.AdjEntries() != 12 {
		t.Fatalf("AdjEntries = %d, want 12", g.AdjEntries())
	}
	for v := Vertex(0); v < 4; v++ {
		if g.Degree(v) != 3 {
			t.Errorf("Degree(%d) = %d, want 3", v, g.Degree(v))
		}
	}
	want := []Vertex{1, 2, 3}
	if !reflect.DeepEqual(g.Neighbors(0), want) {
		t.Errorf("Neighbors(0) = %v, want %v", g.Neighbors(0), want)
	}
}

func TestFromEdgesDropsLoopsAndDupes(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dupes and loop removed)", g.NumEdges())
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop survived")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) must be stored bidirectionally")
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5}}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("expected negative vertex count error")
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleK4(t)
	for u := Vertex(0); u < 4; u++ {
		for v := Vertex(0); v < 4; v++ {
			want := u != v
			if got := g.HasEdge(u, v); got != want {
				t.Errorf("HasEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}}
	g, err := FromEdges(4, in)
	if err != nil {
		t.Fatal(err)
	}
	got := g.Edges()
	sort.Slice(got, func(i, j int) bool {
		if got[i].U != got[j].U {
			return got[i].U < got[j].U
		}
		return got[i].V < got[j].V
	})
	want := []Edge{{0, 1}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edges = %v, want %v", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.MaxDegree() != 0 {
		t.Errorf("empty graph stats wrong: %d %d %d", g.NumVertices(), g.NumEdges(), g.MaxDegree())
	}
}

func TestFromSortedAdjacency(t *testing.T) {
	deg := []uint32{2, 1, 1}
	adj := []Vertex{1, 2, 0, 0}
	g, err := FromSortedAdjacency(deg, adj, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, err := FromSortedAdjacency(deg, adj[:3], false); err == nil {
		t.Error("expected mismatch error")
	}
}

// TestStatsK4: K4's degree statistics — average 3, spread 0, maximum 3 —
// are every vertex having degree 3.
func TestStatsK4(t *testing.T) {
	g := triangleK4(t)
	for v := range Vertex(g.NumVertices()) {
		if d := g.Degree(v); d != 3 {
			t.Errorf("K4 vertex %d has degree %d, want 3", v, d)
		}
	}
}

func TestMinDegreeSumTriangleBound(t *testing.T) {
	// K4 has 4 triangles; MinDegreeSum = 6 edges * 3 = 18; T=4 <= 18/3 = 6.
	g := triangleK4(t)
	if got := MinDegreeSum(g); got != 18 {
		t.Errorf("MinDegreeSum = %d, want 18", got)
	}
}

// randomEdges returns a deterministic pseudo-random edge list.
func randomEdges(rng *rand.Rand, n, m int) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Vertex(rng.Intn(n)), Vertex(rng.Intn(n))}
	}
	return edges
}

// Property: FromEdges output always has sorted neighbor lists, symmetric
// adjacency, no loops, no duplicates.
func TestFromEdgesInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g, err := FromEdges(n, randomEdges(rng, n, rng.Intn(200)))
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			list := g.Neighbors(Vertex(v))
			for i, w := range list {
				if w == Vertex(v) {
					return false // loop
				}
				if i > 0 && list[i-1] >= w {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(w, Vertex(v)) {
					return false // asymmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: vertex degree sum equals twice the edge count.
func TestHandshakeLemma(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g, err := FromEdges(n, randomEdges(rng, n, rng.Intn(300)))
		if err != nil {
			return false
		}
		var degSum uint64
		for v := 0; v < n; v++ {
			degSum += uint64(g.Degree(Vertex(v)))
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEdgeCanon(t *testing.T) {
	if (Edge{5, 2}).Canon() != (Edge{2, 5}) {
		t.Error("Canon should order endpoints")
	}
	if (Edge{2, 5}).Canon() != (Edge{2, 5}) {
		t.Error("Canon should keep ordered endpoints")
	}
}
