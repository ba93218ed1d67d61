package mgt

import (
	"os"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// Failure injection: a runner must fail loudly — never return a wrong
// count — when the store under it is damaged between Open and Run.

func TestTruncatedAdjacencyFails(t *testing.T) {
	g, err := gen.ErdosRenyi(100, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	// Chop the adjacency file in half after opening the metadata.
	if err := os.Truncate(graph.AdjPath(d.Base), d.AdjBytes()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(d, Config{MemEdges: 64}, FullRange(d), nil); err == nil {
		t.Fatal("truncated adjacency must fail the run")
	}
}

func TestTruncatedAdjacencyFailsLargePath(t *testing.T) {
	g, err := gen.Complete(80) // d*max = 79 > M → large-vertex path
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	if err := os.Truncate(graph.AdjPath(d.Base), d.AdjBytes()/3); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(d, Config{MemEdges: 16}, FullRange(d), nil); err == nil {
		t.Fatal("truncated adjacency must fail the large-vertex path too")
	}
}

func TestMissingAdjacencyFails(t *testing.T) {
	g, err := gen.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	if err := os.Remove(graph.AdjPath(d.Base)); err != nil {
		t.Fatal(err)
	}
	if _, err := runOnce(d, Config{MemEdges: 16}, FullRange(d), nil); err == nil {
		t.Fatal("missing adjacency must fail the run")
	}
}

func TestCorruptMetaFails(t *testing.T) {
	g, err := gen.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	if err := os.WriteFile(graph.MetaPath(d.Base), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Open(d.Base); err == nil {
		t.Fatal("corrupt metadata must fail Open")
	}
}

func TestTruncatedDegreesFails(t *testing.T) {
	g, err := gen.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	d := orientedStore(t, g)
	if err := os.Truncate(graph.DegPath(d.Base), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := graph.Open(d.Base); err == nil {
		t.Fatal("truncated degree file must fail Open")
	}
}
