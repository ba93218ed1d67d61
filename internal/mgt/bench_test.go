package mgt

import (
	"context"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/scan"
)

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
		st, err := Run(context.Background(), d, Config{MemEdges: m})
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
		if _, err := Run(context.Background(), d, Config{MemEdges: m}); err != nil {
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
		st, err := Run(context.Background(), d, Config{MemEdges: m, Sink: &sink})
		if err != nil {
			b.Fatal(err)
		}
		if sink.N != st.Triangles {
			b.Fatal("sink mismatch")
		}
	}
}

// BenchmarkCone measures the calculation phase alone — a warmed Runner over
// an in-memory source, count-only, the window holding the whole file — on
// the skewed stand-in the scan package's kernel benchmarks use: the
// runner's own mark-and-probe routine (auto) against the paper's pairwise
// merge. cmp/op is Stats.CmpOps, exact and repeatable.
func BenchmarkCone(b *testing.B) {
	g, err := gen.PowerLaw(20000, 200000, 2.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	d := orientedStore(b, g)
	src, err := scan.New(scan.SourceMem, d, scan.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	for _, k := range []scan.KernelKind{scan.KernelAuto, scan.KernelMerge} {
		b.Run(k.String(), func(b *testing.B) {
			kernel, err := scan.NewKernel(k)
			if err != nil {
				b.Fatal(err)
			}
			h, err := src.Handle(nil)
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			r, err := NewRunner(d, Config{MemEdges: int(d.Meta.AdjEntries), Source: h, Kernel: kernel})
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
		})
	}
}
