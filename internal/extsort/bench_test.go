package extsort

import (
	"context"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// benchEdgeFile writes a shuffled RMAT scale-14 edge list (≈ 250 K edges)
// and returns its path and edge count.
func benchEdgeFile(b *testing.B) (string, int) {
	g, err := gen.RMAT(14, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	edges := g.Edges()
	rand.New(rand.NewSource(1)).Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	src := filepath.Join(b.TempDir(), "in.bin")
	if err := WriteEdgeFile(src, edges); err != nil {
		b.Fatal(err)
	}
	return src, len(edges)
}

// BenchmarkBuildStore measures the whole ingest, with every key in one run
// and with the keys spilled in eight runs and merged, into both formats.
func BenchmarkBuildStore(b *testing.B) {
	src, m := benchEdgeFile(b)
	budgets := []struct {
		name string
		mem  int
	}{{"one-run", 4 * m}, {"spilled", m / 2}}
	for _, bud := range budgets {
		for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
			b.Run(bud.name+"/"+string(format), func(b *testing.B) {
				base := filepath.Join(b.TempDir(), "store")
				b.SetBytes(int64(m) * EdgeBytes)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := BuildStoreFormat(nil, src, base, "bench", bud.mem, format, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}

// BenchmarkSortRun compares the run sort with the standard library's
// pdqsort on the same mirrored keys. The run sort uses GOMAXPROCS workers,
// so run it at -cpu 1,2: one worker, and the split.
func BenchmarkSortRun(b *testing.B) {
	src, _ := benchEdgeFile(b)
	s := newSorter(filepath.Join(b.TempDir(), "probe"), 1<<30, ioacct.NewCounter(0))
	if err := s.load(context.Background(), src); err != nil {
		b.Fatal(err)
	}
	keys := slices.Clone(s.buf)
	rand.New(rand.NewSource(2)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	sorts := []struct {
		name string
		sort func()
	}{
		{"radix", s.sortBuf},
		{"pdqsort", func() { slices.Sort(s.buf) }},
	}
	for _, st := range sorts {
		b.Run(st.name, func(b *testing.B) {
			b.SetBytes(int64(len(keys)) * keyBytes)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s.buf = append(s.buf[:0], keys...)
				b.StartTimer()
				st.sort()
			}
			b.ReportMetric(float64(len(keys))*float64(b.N)/b.Elapsed().Seconds(), "keys/s")
		})
	}
}
