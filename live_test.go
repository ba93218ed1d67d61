package pdtl

import (
	"context"
	"path/filepath"
	"testing"
)

// TestLiveGraphEndToEnd exercises the public live API: open, mutate,
// count, compact, count again.
func TestLiveGraphEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "g")
	// A 4-cycle with one chord: exactly 2 triangles.
	edges := [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}
	if _, err := WriteGraph(base, "live-e2e", 4, edges); err != nil {
		t.Fatal(err)
	}
	lg, err := OpenLive(context.Background(), base, LiveOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()

	res, err := lg.Count(context.Background(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 {
		t.Fatalf("base count = %d want 2", res.Triangles)
	}

	// Close the other diagonal (adds triangles 1-2-3 and 0-1-3), then
	// delete the chord (removes 0-1-2 and 0-2-3).
	if err := lg.Apply([]LiveUpdate{{U: 1, V: 3}, {U: 0, V: 2, Del: true}}); err != nil {
		t.Fatal(err)
	}
	res, err = lg.Count(context.Background(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 {
		t.Fatalf("post-mutation count = %d want 2", res.Triangles)
	}

	if runs := lg.Handle().Runs(); runs != 2 {
		t.Fatalf("handle runs = %d want 2", runs)
	}

	if err := lg.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := lg.Stats()
	if st.Gen != 1 || st.DeltaEdges != 0 {
		t.Fatalf("post-compact stats: %+v", st)
	}
	res, err = lg.Count(context.Background(), Options{Workers: 1, Sched: "stealing"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 {
		t.Fatalf("post-compact count = %d want 2", res.Triangles)
	}

	// Invalid batches are rejected atomically.
	if err := lg.Apply([]LiveUpdate{{U: 5, V: 5}}); err == nil {
		t.Fatal("want error for self-loop")
	}
	if err := lg.Apply([]LiveUpdate{{U: 0, V: 1}}); err == nil {
		t.Fatal("want error for duplicate insert")
	}
}
