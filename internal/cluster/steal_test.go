package cluster

import (
	"bytes"
	"context"
	"os"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/sched"

	"path/filepath"
)

// TestDistributedStealingMatchesReference runs the chunk-dispensing
// protocol end to end: the master must hand every chunk out exactly once
// across nodes and the summed counts must match the baseline, for any
// cluster size including the degenerate local one.
func TestDistributedStealingMatchesReference(t *testing.T) {
	g, err := gen.RMAT(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "rmat10")

	for _, clients := range []int{0, 1, 3} {
		lc := startCluster(t, clients)
		res, err := Run(context.Background(), Config{
			GraphBase: base,
			Workers:   2,
			MemEdges:  512,
			Strategy:  balance.InDegree,
			Sched:     sched.Stealing,
			Chunks:    4,
		}, lc.Addrs())
		if err != nil {
			t.Fatalf("clients=%d: %v", clients, err)
		}
		if res.Triangles != want {
			t.Errorf("clients=%d: triangles = %d, want %d", clients, res.Triangles, want)
		}
		// Every chunk of the global plan must have been executed exactly
		// once: per-node chunk counts sum to the plan size.
		wantChunks := sched.ChunksFor((clients+1)*2, 4)
		if len(res.Plan.Ranges) != wantChunks {
			t.Errorf("clients=%d: plan has %d chunks, want %d", clients, len(res.Plan.Ranges), wantChunks)
		}
		gotChunks := 0
		for _, n := range res.Nodes {
			for _, w := range n.Workers {
				gotChunks += w.Chunks
			}
		}
		if gotChunks != wantChunks {
			t.Errorf("clients=%d: nodes executed %d chunks, want %d", clients, gotChunks, wantChunks)
		}
	}
}

// TestDistributedStealingListing checks the chunk-ordered listing
// assembly: the triples of a stealing run, re-sorted, must equal the
// static run's, and the raw stealing listing must be identical across runs
// (segments are concatenated by global chunk index, not arrival order).
func TestDistributedStealingListing(t *testing.T) {
	g, err := gen.PowerLaw(300, 4500, 2.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "pl")
	dir := t.TempDir()

	runList := func(name string, mode sched.Mode) []byte {
		t.Helper()
		lc := startCluster(t, 2)
		path := filepath.Join(dir, name)
		_, err := Run(context.Background(), Config{
			GraphBase: base,
			Workers:   2,
			MemEdges:  256,
			Strategy:  balance.InDegree,
			Sched:     mode,
			Chunks:    4,
			List:      true,
			ListPath:  path,
		}, lc.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	staticList := runList("static.bin", sched.Static)
	stealList := runList("steal.bin", sched.Stealing)
	if !bytes.Equal(staticList, runList("static2.bin", sched.Static)) {
		t.Error("static listing differs across runs")
	}
	if !bytes.Equal(stealList, runList("steal2.bin", sched.Stealing)) {
		t.Error("stealing listing differs across runs; chunk-order determinism broken")
	}
	a, b := normalizeListing(t, filepath.Join(dir, "static.bin")), normalizeListing(t, filepath.Join(dir, "steal.bin"))
	if len(a) != len(b) {
		t.Fatalf("static listed %d triangles, stealing %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("normalized listings diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDistributedStealingCancel: a cancelled stealing protocol aborts
// promptly with the bare context error, same as the static path.
func TestDistributedStealingCancel(t *testing.T) {
	g, err := gen.RMAT(10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "rmatc")
	lc := startCluster(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, Config{
		GraphBase: base,
		Workers:   2,
		MemEdges:  64,
		Sched:     sched.Stealing,
	}, lc.Addrs())
	if err != context.Canceled {
		t.Fatalf("pre-cancelled stealing run returned %v, want context.Canceled", err)
	}
}
