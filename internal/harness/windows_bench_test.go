package harness

import (
	"context"
	"fmt"
	"os"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/scan"
)

// BenchmarkWindows is EXPERIMENTS.md's "Cooperative windows against
// per-runner windows": the calculation phase alone (the plan of the
// per-runner layout is made outside the clock) at equal memory — P runners
// sharing one window of P·M entries, dealt the scan, against P runners with
// private M-entry windows over the ranges of the window-aware in-degree
// plan (the paper's layout, -scan buffered). Every run's count is checked
// against the first. Set PDTL_BENCH_CACHE to keep the generated stores
// between runs:
//
//	go test -run '^$' -bench Windows -benchtime 5x ./internal/harness
func BenchmarkWindows(b *testing.B) {
	h, err := New(os.Getenv("PDTL_BENCH_CACHE"))
	if err != nil {
		b.Fatal(err)
	}
	for _, key := range []string{"rmat16", "twitter-sim", "ooc-sim"} {
		for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
			h.StoreFormat = format
			base, ores, err := h.Oriented(key, 2)
			if err != nil {
				b.Fatal(err)
			}
			d, err := graph.Open(base)
			if err != nil {
				b.Fatal(err)
			}
			total := int(d.Meta.AdjEntries)
			var want uint64
			for _, p := range []int{1, 2, 4} {
				for _, windows := range []int{1, 48} {
					mem := (total + windows - 1) / windows
					plan, err := balance.PlanStore(d, ores.InDegrees, p, balance.InDegree, mem)
					if err != nil {
						b.Fatal(err)
					}
					for _, layout := range []struct {
						name   string
						source scan.SourceKind
						ranges []balance.Range
					}{
						{"cooperative", scan.SourceAuto, []balance.Range{mgt.FullRange(d)}},
						{"per-runner", scan.SourceBuffered, plan.Ranges},
					} {
						b.Run(fmt.Sprintf("%s/%s/P=%d/M=E÷%d/%s", key, format, p, windows, layout.name), func(b *testing.B) {
							var rounds int
							var read int64
							for i := 0; i < b.N; i++ {
								tr := obs.NewTrace(0)
								ctx := obs.ContextWithCursor(context.Background(), obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
								calc, err := core.RunRanges(ctx, d, layout.ranges, core.Options{Workers: p, MemEdges: mem, Scan: layout.source})
								if err != nil {
									b.Fatal(err)
								}
								var triangles uint64
								read = calc.SourceIO.BytesRead
								for _, w := range calc.Workers {
									triangles += w.Stats.Triangles
									read += w.Stats.IO.BytesRead
								}
								if want == 0 {
									want = triangles
								} else if triangles != want {
									b.Fatalf("counted %d triangles, the first run %d", triangles, want)
								}
								rounds = 0
								for _, sp := range tr.Spans() {
									if sp.Name == obs.SpanScanRound {
										rounds++
									}
								}
							}
							b.ReportMetric(float64(rounds), "rounds")
							b.ReportMetric(float64(read)/1e6, "MB-read")
						})
					}
				}
			}
		}
	}
}
