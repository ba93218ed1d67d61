package extsort

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// writeEdges writes n sequential synthetic edges.
func writeEdges(t *testing.T, path string, n int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, n*EdgeBytes)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[i*EdgeBytes:], uint32(i%997))
		binary.LittleEndian.PutUint32(buf[i*EdgeBytes+4:], uint32((i+1)%997))
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th call on: a cancellation that lands exactly at one of the
// pipeline's checks. The pipeline polls Err from one goroutine.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestBuildStoreCancelled: a pre-cancelled context aborts the ingest with
// the bare context error and leaves no intermediate files behind.
func TestBuildStoreCancelled(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "edges.bin")
	writeEdges(t, src, 200_000)
	base := filepath.Join(dir, "store")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := BuildStore(ctx, src, base, "x", 1<<16, nil); err != context.Canceled {
		t.Fatalf("BuildStore returned %v, want context.Canceled", err)
	}
	checkNoIntermediates(t, base)
}

// TestSortCancelled: the spilling path honors a pre-cancelled context too.
func TestSortCancelled(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "edges.bin")
	writeEdges(t, src, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := filepath.Join(dir, "out")
	if err := BuildStore(ctx, src, base, "x", 1<<14, nil); err != context.Canceled {
		t.Fatalf("BuildStore returned %v, want context.Canceled", err)
	}
	checkNoIntermediates(t, base)
}

// TestSortCancelledLeavesNoRunFiles: an ingest cancelled from another
// goroutine while it spills removes the runs it already wrote.
func TestSortCancelledLeavesNoRunFiles(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "edges.bin")
	writeEdges(t, src, 300_000)
	base := filepath.Join(dir, "out")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- BuildStore(ctx, src, base, "x", 1<<15, nil) }()
	cancel()
	if err := <-done; err != nil && err != context.Canceled {
		t.Fatalf("BuildStore returned %v", err)
	}
	checkNoIntermediates(t, base)
}

// TestBuildStoreCancelledAtEveryCheck cancels the ingest at its first
// context check, its second, and so on until one completes, on the
// one-run path, the one-merge path and the multi-level merge: every
// cancelled run returns the bare context.Canceled and leaves no run file,
// and the completed one matches the in-memory build.
func TestBuildStoreCancelledAtEveryCheck(t *testing.T) {
	edges := messyEdges(17, 150)
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	keys := 2 * len(edges)
	for _, mem := range []int{2 * keys, keys / 2, 7} {
		for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
			base := filepath.Join(dir, "store")
			cancelled := 0
			// Past a few checks, step geometrically: the multi-level merge
			// checks once per run spilled.
			for n := 0; ; n += 1 + n/2 {
				err := BuildStoreFormat(&cancelAfter{Context: context.Background(), n: n}, src, base, "c", mem, format, nil)
				checkNoIntermediates(t, base)
				if err == nil {
					break
				}
				if err != context.Canceled {
					t.Fatalf("mem=%d %s cancelled at check %d: %v", mem, format, n, err)
				}
				cancelled++
			}
			if cancelled < 2 {
				t.Errorf("mem=%d %s: only %d cancellation points", mem, format, cancelled)
			}
			checkMatchesInMemory(t, base, "c", edges, format)
		}
	}
}

// TestBuildStoreCancelledJoinsWorkers: an ingest whose run sorts use four
// workers, cancelled at each of its checks with every key in one run and
// spilled in several, leaves no goroutine behind.
func TestBuildStoreCancelledJoinsWorkers(t *testing.T) {
	edges := messyEdges(23, 300)
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	keys := 2 * len(edges)
	before := runtime.NumGoroutine()
	for _, mem := range []int{2 * keys, keys / 4} {
		base := filepath.Join(dir, "store")
		for n := 0; ; n++ {
			s := newSorter(base, mem, ioacct.NewCounter(0))
			s.workers, s.splitKeys = 4, 16
			err := s.build(&cancelAfter{Context: context.Background(), n: n}, src, "c", graph.FormatPlain)
			checkNoIntermediates(t, base)
			if err == nil {
				break
			}
			if err != context.Canceled {
				t.Fatalf("mem=%d cancelled at check %d: %v", mem, n, err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d, baseline %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
