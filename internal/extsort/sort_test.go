package extsort

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// fuzzSplitKeys is the per-worker minimum FuzzSortRun sorts with, so that
// runs of a few keys already split.
const fuzzSplitKeys = 4

// sortKeys is the run sort of keys at workers workers, each given at least
// split keys.
func sortKeys(keys []uint64, workers, split int) []uint64 {
	s := newSorter("", 2, nil)
	s.workers, s.splitKeys = workers, split
	s.buf = slices.Clone(keys)
	s.sortBuf()
	return s.buf
}

// FuzzSortRun: at 1, 2, 3 and 4 workers the run sort of any keys is
// slices.Sort's, and a sorter's second sort is as right as its first.
func FuzzSortRun(f *testing.F) {
	key := func(u, v uint32) uint64 { return uint64(u)<<32 | uint64(v) }
	corpus := [][]uint64{
		nil,
		{key(3, 1)},
		{key(7, 7), key(7, 7), key(7, 7), key(7, 7), key(7, 7), key(7, 7), key(7, 7), key(7, 7), key(7, 7)},
		{key(1<<22, 5), key(5, 1<<22), key(1<<22|3, 9), key(9, 1<<22|3), key(2, 1), key(1, 2), key(1<<22, 1), key(1, 1<<22)},
		{key(1<<31, 1), key(1, 1<<31), key(1<<31|1<<20, 4), key(4, 1<<31|1<<20), key(0, 1<<31), key(1<<31, 0), key(3, 2), key(2, 3), key(1<<31-1, 1)},
		// A half whose highest set bit is 0: every key's low half is 0 or
		// every key's high half is.
		{key(9, 0), key(1, 0), key(5, 0), key(1<<12, 0), key(3, 0), key(7, 0), key(2, 0), key(4, 0), key(8, 0)},
		{key(0, 9), key(0, 1), key(0, 5), key(0, 1<<12), key(0, 3), key(0, 7), key(0, 2), key(0, 4), key(0, 8)},
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2*fuzzSplitKeys - 1, 2 * fuzzSplitKeys, 2*fuzzSplitKeys + 1, 4*fuzzSplitKeys - 1, 4 * fuzzSplitKeys, 4*fuzzSplitKeys + 1} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = key(uint32(rng.Intn(1<<14)), uint32(rng.Intn(1<<14)))
		}
		corpus = append(corpus, keys)
	}
	for _, keys := range corpus {
		raw := make([]byte, 0, len(keys)*keyBytes)
		for _, k := range keys {
			raw = binary.LittleEndian.AppendUint64(raw, k)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		keys := make([]uint64, len(raw)/keyBytes)
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(raw[i*keyBytes:])
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		for workers := 1; workers <= 4; workers++ {
			if got := sortKeys(keys, workers, fuzzSplitKeys); !slices.Equal(got, want) {
				t.Fatalf("%d workers sorted %x into %x, want %x", workers, keys, got, want)
			}
		}
		// The second sort reuses the first's digit tables and scratch.
		s := newSorter("", 2, nil)
		s.workers, s.splitKeys = 4, fuzzSplitKeys
		for round := 0; round < 2; round++ {
			s.buf = append(s.buf[:0], keys...)
			s.sortBuf()
			if !slices.Equal(s.buf, want) {
				t.Fatalf("sort %d of a reused sorter: %x, want %x", round, s.buf, want)
			}
		}
	})
}

// TestBuildStoreWorkerInvariance: at 1, 2 and 4 workers, with every key in
// one run and spilled in about eight, in both formats, the ingest writes
// the same bytes to every store file.
func TestBuildStoreWorkerInvariance(t *testing.T) {
	g, err := gen.RMAT(12, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := append(g.Edges(), messyEdges(9, 500)...)
	rand.New(rand.NewSource(4)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	dir := t.TempDir()
	src := filepath.Join(dir, "raw.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		t.Fatal(err)
	}
	keys := 2 * len(edges)
	budgets := []struct {
		name string
		mem  int
	}{{"one-run", 4 * keys}, {"spilled", keys / 4}}
	for _, bud := range budgets {
		for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
			var ref [][]byte
			for _, workers := range []int{1, 2, 4} {
				base := filepath.Join(dir, bud.name+string(format)+string(rune('0'+workers)))
				s := newSorter(base, bud.mem, ioacct.NewCounter(0))
				s.workers, s.splitKeys = workers, 256
				if err := s.build(context.Background(), src, "inv", format); err != nil {
					t.Fatal(err)
				}
				if bud.name == "spilled" && s.made < 8 {
					t.Fatalf("spilled budget wrote %d runs, want at least 8", s.made)
				}
				checkNoIntermediates(t, base)
				for i, path := range storeFiles(base, format) {
					blob, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if workers == 1 {
						ref = append(ref, blob)
					} else if !bytes.Equal(blob, ref[i]) {
						t.Errorf("%s %s: %d workers changed %s", bud.name, format, workers, filepath.Ext(path))
					}
				}
			}
		}
	}
}
