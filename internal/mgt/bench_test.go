package mgt

import (
	"context"
	"fmt"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
)

// BenchmarkDealtBlockSize is the measurement behind BlockEntries (the table
// in EXPERIMENTS.md "Cooperative windows"): two runners on the shape of the
// benchmark's out-of-core input — a sparse power law on a compressed store,
// the window 1/24 of it — and on an RMAT plain store that fits one window,
// with cone blocks from 1 K to 64 K entries.
//
//	go test -run '^$' -bench DealtBlockSize -benchtime 5x ./internal/mgt
func BenchmarkDealtBlockSize(b *testing.B) {
	ooc, err := gen.PowerLaw(1<<18, 8<<18, 1.9, 110)
	if err != nil {
		b.Fatal(err)
	}
	inmem, err := gen.RMAT(15, 16, 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name    string
		d       *graph.Disk
		windows int
	}{
		{"ooc", compressedStore(b, ooc), 24},
		{"inmem", orientedStore(b, inmem), 1},
	} {
		mem := (int(in.d.Meta.AdjEntries) + 2*in.windows - 1) / (2 * in.windows)
		for _, block := range []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/block=%dK", in.name, block>>10), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := RunDealt(context.Background(), in.d, []balance.Range{FullRange(in.d)}, DealConfig{Workers: 2, MemEdges: mem, blockEntries: block})
					if err != nil || res.Runners[0].Passes != in.windows {
						b.Fatalf("%d rounds, %v", res.Runners[0].Passes, err)
					}
				}
			})
		}
	}
}

// BenchmarkMGTFullPass measures a whole-range run with a one-pass memory
// budget (the ample-memory configuration).
func BenchmarkMGTFullPass(b *testing.B) {
	g, err := gen.RMAT(11, 16, 9)
	if err != nil {
		b.Fatal(err)
	}
	d := orientedStore(b, g)
	m := int(d.Meta.AdjEntries) + 1
	b.SetBytes(d.AdjBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := runOnce(d, Config{MemEdges: m}, FullRange(d), nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Triangles == 0 {
			b.Fatal("no triangles")
		}
	}
}

// BenchmarkMGTManyPasses measures the same run under a 16-pass budget,
// exercising the external-memory window loop.
func BenchmarkMGTManyPasses(b *testing.B) {
	g, err := gen.RMAT(11, 16, 9)
	if err != nil {
		b.Fatal(err)
	}
	d := orientedStore(b, g)
	m := int(d.Meta.AdjEntries)/16 + 1
	b.SetBytes(d.AdjBytes() * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runOnce(d, Config{MemEdges: m}, FullRange(d), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMGTListing measures the listing path through a counting sink.
func BenchmarkMGTListing(b *testing.B) {
	g, err := gen.RMAT(11, 16, 9)
	if err != nil {
		b.Fatal(err)
	}
	d := orientedStore(b, g)
	m := int(d.Meta.AdjEntries) + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sink CountSink
		st, err := runOnce(d, Config{MemEdges: m}, FullRange(d), &sink)
		if err != nil {
			b.Fatal(err)
		}
		if sink.N != st.Triangles {
			b.Fatal("sink mismatch")
		}
	}
}

// BenchmarkCone measures the calculation phase alone — a warmed Runner on a
// page-cache-warm store, count-only, the window holding the whole file — on a
// skewed power-law stand-in. cmp/op is Stats.CmpOps, exact and repeatable.
func BenchmarkCone(b *testing.B) {
	g, err := gen.PowerLaw(20000, 200000, 2.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := orientedStore(b, g)
	r, err := NewRunner(d, Config{MemEdges: int(d.Meta.AdjEntries)})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	var st Stats
	for b.Loop() {
		if st, err = r.RunRange(context.Background(), FullRange(d), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.CmpOps), "cmp/op")
	b.ReportMetric(float64(st.Triangles), "triangles")
}
