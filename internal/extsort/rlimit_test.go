//go:build unix

package extsort

import (
	"path/filepath"
	"syscall"
	"testing"

	"pdtl/internal/graph"
)

// TestBuildStoreManyRunsFewFiles: thousands of runs merge under a 256-file
// limit, since a merge opens at most mergeFanIn of them at once.
func TestBuildStoreManyRunsFewFiles(t *testing.T) {
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
		t.Fatal(err)
	}
	low := old
	low.Cur = min(old.Cur, 256)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &old); err != nil {
			t.Error(err)
		}
	}()

	// At memEdges 1 a run holds one edge's two keys: 4,500 loop-free
	// edges spill 4,500 runs.
	edges := make([]graph.Edge, 4500)
	for i := range edges {
		edges[i] = graph.Edge{U: uint32(i*7919) % 1500, V: uint32(i*104729+1) % 1500}
		if edges[i].U == edges[i].V {
			edges[i].V = (edges[i].V + 1) % 1500
		}
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	if got := runsSpilled(t, src, 1); got < 4000 {
		t.Fatalf("%d runs spilled, want at least 4000", got)
	}
	base := filepath.Join(dir, "store")
	if err := BuildStoreFormat(nil, src, base, "many", 1, graph.FormatPlain, nil); err != nil {
		t.Fatal(err)
	}
	checkMatchesInMemory(t, base, "many", edges, graph.FormatPlain)
	checkNoIntermediates(t, base)
}
