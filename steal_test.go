package pdtl

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"pdtl/internal/mgt"
)

// stealStore writes a skewed test graph store.
func stealStore(t *testing.T) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), "steal")
	if _, err := GeneratePowerLaw(base, 600, 9000, 2.0, 21); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestHandleStealingMatchesStatic drives the public knobs end to end. On
// one machine the schedule has nothing left to decide — the runners of a
// cooperative window are dealt blocks, a named source binds one range to
// each runner — so a "stealing" run must produce the same count, key and
// listing as the default static run, byte for byte and run after run, and
// draw no chunks.
func TestHandleStealingMatchesStatic(t *testing.T) {
	base := stealStore(t)
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	staticOpt := Options{Workers: 3, MemEdges: 512}
	staticRes, err := g.Count(context.Background(), staticOpt)
	if err != nil {
		t.Fatal(err)
	}

	stealOpt := Options{Workers: 3, MemEdges: 512, Sched: "stealing"}
	stealRes, err := g.Count(context.Background(), stealOpt)
	if err != nil {
		t.Fatal(err)
	}
	staticKey, _ := staticOpt.Key()
	if stealKey, err := stealOpt.Key(); err != nil || stealKey != staticKey {
		t.Errorf("stealing key %q (%v), static %q: want the same", stealKey, err, staticKey)
	}
	if stealRes.Triangles != staticRes.Triangles {
		t.Fatalf("stealing counted %d, static %d", stealRes.Triangles, staticRes.Triangles)
	}
	for _, source := range []string{"auto", "buffered"} {
		opt := stealOpt
		opt.ScanSource = source
		res, err := g.Count(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		totalChunks := 0
		for _, w := range res.Workers {
			totalChunks += w.Chunks
		}
		if res.Triangles != staticRes.Triangles || len(res.Workers) != 3 || totalChunks != 3 {
			t.Errorf("-scan %s: %d triangles (want %d), %d workers ran %d ranges, want 3 and 3",
				source, res.Triangles, staticRes.Triangles, len(res.Workers), totalChunks)
		}
	}

	// Listings: identical multiset, deterministic raw bytes under stealing.
	var staticList, steal1, steal2 bytes.Buffer
	if _, err := g.List(context.Background(), &staticList, Options{Workers: 3, MemEdges: 512}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.List(context.Background(), &steal1, stealOpt); err != nil {
		t.Fatal(err)
	}
	if _, err := g.List(context.Background(), &steal2, stealOpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(steal1.Bytes(), steal2.Bytes()) || !bytes.Equal(steal1.Bytes(), staticList.Bytes()) {
		t.Error("stealing listing differs across runs, or from the static one")
	}
	norm := func(b []byte) map[[3]uint32]bool {
		tris, err := mgt.ReadTriangles(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		set := make(map[[3]uint32]bool, len(tris))
		for _, tri := range tris {
			if set[tri] {
				t.Fatalf("triangle %v listed twice", tri)
			}
			set[tri] = true
		}
		return set
	}
	a, b := norm(staticList.Bytes()), norm(steal1.Bytes())
	if len(a) != len(b) {
		t.Fatalf("static listed %d triangles, stealing %d", len(a), len(b))
	}
	for tri := range a {
		if !b[tri] {
			t.Fatalf("stealing listing is missing %v", tri)
		}
	}
}

// TestHandleStealingBadKnobs: unknown scheduler names fail fast on every
// entry point rather than being silently treated as static.
func TestHandleStealingBadKnobs(t *testing.T) {
	base := stealStore(t)
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Count(context.Background(), Options{Sched: "dynamic"}); err == nil {
		t.Error("Count accepted an unknown scheduler name")
	}
	if _, err := g.ForEach(context.Background(), Options{Sched: "dynamic"}, func(u, v, w uint32) {}); err == nil {
		t.Error("ForEach accepted an unknown scheduler name")
	}
	var buf bytes.Buffer
	if _, err := g.List(context.Background(), &buf, Options{Sched: "dynamic"}); err == nil {
		t.Error("List accepted an unknown scheduler name")
	}
}

// TestHandleStealingTriangleDegrees cross-checks the per-vertex counts
// between the schedulers (the stealing path routes through per-chunk
// shards or the atomic fallback).
func TestHandleStealingTriangleDegrees(t *testing.T) {
	base := stealStore(t)
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	staticDeg, _, err := g.TriangleDegrees(context.Background(), Options{Workers: 2, MemEdges: 512})
	if err != nil {
		t.Fatal(err)
	}
	stealDeg, _, err := g.TriangleDegrees(context.Background(), Options{Workers: 2, MemEdges: 512, Sched: "stealing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(staticDeg) != len(stealDeg) {
		t.Fatalf("degree arrays differ in length: %d vs %d", len(staticDeg), len(stealDeg))
	}
	for v := range staticDeg {
		if staticDeg[v] != stealDeg[v] {
			t.Fatalf("vertex %d: static degree %d, stealing %d", v, staticDeg[v], stealDeg[v])
		}
	}
}

// TestClusterRefusesStealingBuffered: -sched stealing with -scan buffered is
// refused by ClusterOptions.Key and by CountDistributed, with one error
// naming the pair, before the handle runs or orients anything.
func TestClusterRefusesStealingBuffered(t *testing.T) {
	g, err := Open(stealStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	opt := ClusterOptions{Sched: "stealing", ScanSource: "buffered"}
	const pair = "-sched stealing does not combine with -scan buffered"
	if _, err := opt.Key(nil); err == nil || !strings.Contains(err.Error(), pair) {
		t.Errorf("Key = %v, want an error naming the pair", err)
	}
	if _, err := g.CountDistributed(context.Background(), nil, opt); err == nil || !strings.Contains(err.Error(), pair) {
		t.Errorf("CountDistributed = %v, want an error naming the pair", err)
	}
	if g.Runs() != 0 {
		t.Errorf("the refused run counted as %d runs", g.Runs())
	}
	for _, source := range []string{"", "auto"} {
		opt.ScanSource = source
		if _, err := opt.Key(nil); err != nil {
			t.Errorf("scan %q: %v", source, err)
		}
	}
}
