package pdtl

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"pdtl/internal/gen"
)

// TestGenerateStreamReplayOnLiveGraph is the churn crosscheck at the public
// API level: generate a seeded trace, replay every batch through a live
// graph, and require the live count to equal a from-scratch count over the
// final store the generator wrote.
func TestGenerateStreamReplayOnLiveGraph(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "init")
	finalBase := filepath.Join(dir, "final")
	var trace bytes.Buffer
	p := StreamParams{N: 150, M: 900, Batches: 8, BatchSize: 40, DeleteFrac: 0.35, Seed: 11}
	if _, err := GenerateStream(base, &trace, finalBase, p); err != nil {
		t.Fatal(err)
	}
	batches, err := gen.ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != p.Batches {
		t.Fatalf("trace has %d batches, want %d", len(batches), p.Batches)
	}

	lg, err := OpenLive(context.Background(), base, LiveOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for i, b := range batches {
		updates := make([]LiveUpdate, 0, len(b.Insert)+len(b.Delete))
		for _, ins := range b.Insert {
			updates = append(updates, LiveUpdate{U: ins[0], V: ins[1]})
		}
		for _, d := range b.Delete {
			updates = append(updates, LiveUpdate{U: d[0], V: d[1], Del: true})
		}
		if err := lg.Apply(updates); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}

	liveRes, err := lg.Count(context.Background(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fg, err := Open(finalBase)
	if err != nil {
		t.Fatal(err)
	}
	defer fg.Close()
	wantRes, err := fg.Count(context.Background(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.Triangles != wantRes.Triangles {
		t.Fatalf("live count after replay = %d, final store count = %d",
			liveRes.Triangles, wantRes.Triangles)
	}
	if got, want := lg.Stats().NumEdges, fg.Info().NumEdges; got != want {
		t.Fatalf("live graph has %d edges after replay, final store %d", got, want)
	}
	// Compacting the replayed delta preserves the count.
	if err := lg.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	liveRes, err = lg.Count(context.Background(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.Triangles != wantRes.Triangles {
		t.Fatalf("post-compact count = %d, want %d", liveRes.Triangles, wantRes.Triangles)
	}
}
