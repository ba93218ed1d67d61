package main

import (
	"path/filepath"
	"strings"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/orient"
)

// TestBaselineCount: the reference counts the undirected store exactly and
// refuses its oriented copy instead of counting a different graph.
func TestBaselineCount(t *testing.T) {
	base := filepath.Join(t.TempDir(), "k6")
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteCSR(base, "k6", g); err != nil {
		t.Fatal(err)
	}
	n, err := baselineCount(base)
	if err != nil || n != gen.CompleteTriangles(6) {
		t.Fatalf("baselineCount = %d, %v; want %d", n, err, gen.CompleteTriangles(6))
	}
	if _, err := orient.Orient(base, base+".oriented", 1); err != nil {
		t.Fatal(err)
	}
	_, err = baselineCount(base + ".oriented")
	if err == nil || !strings.Contains(err.Error(), "is oriented") {
		t.Fatalf("baselineCount on an oriented store: err = %v, want a refusal", err)
	}
}
