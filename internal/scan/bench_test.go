package scan

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/orient"
)

// benchStore builds the oriented store of a skewed (social-like) power-law
// graph once per benchmark binary, in a process-lifetime temp directory
// (b.TempDir would be torn down when the first benchmark returns).
var benchStore struct {
	once sync.Once
	dir  string
	d    *graph.Disk
	err  error
}

// TestMain cleans the process-lifetime bench store up after all
// tests/benchmarks have run.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchStore.dir != "" {
		os.RemoveAll(benchStore.dir)
	}
	os.Exit(code)
}

func benchDisk(b *testing.B) *graph.Disk {
	benchStore.once.Do(func() {
		fail := func(err error) { benchStore.err = err }
		g, err := gen.PowerLaw(20000, 200000, 2.1, 1)
		if err != nil {
			fail(err)
			return
		}
		dir, err := os.MkdirTemp("", "pdtl-scan-bench-")
		if err != nil {
			fail(err)
			return
		}
		benchStore.dir = dir
		src := filepath.Join(dir, "g")
		if err := graph.WriteCSR(src, "bench", g); err != nil {
			fail(err)
			return
		}
		dst := filepath.Join(dir, "g.oriented")
		if _, err := orient.Orient(src, dst, 2); err != nil {
			fail(err)
			return
		}
		benchStore.d, benchStore.err = graph.Open(dst)
	})
	if benchStore.err != nil {
		b.Fatal(benchStore.err)
	}
	return benchStore.d
}

// BenchmarkSourceScanVolume measures one round of P=4 concurrent full
// sequential passes under each source. The headline metric is diskB/op —
// the physical read volume per round: buffered pays P·|E*|, shared pays
// |E*| (1/P).
func BenchmarkSourceScanVolume(b *testing.B) {
	const P = 4
	for _, kind := range []SourceKind{SourceBuffered, SourceShared} {
		b.Run(string(kind), func(b *testing.B) {
			d := benchDisk(b)
			srcCounter := ioacct.NewCounter(0)
			src, err := New(kind, d, Config{Counter: srcCounter})
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			counters := make([]*ioacct.Counter, P)
			handles := make([]Handle, P)
			for i := range handles {
				counters[i] = ioacct.NewCounter(0)
				if handles[i], err = src.Handle(counters[i]); err != nil {
					b.Fatal(err)
				}
				defer handles[i].Close()
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				var wg sync.WaitGroup
				for i := 0; i < P; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						sc, err := handles[i].Scan(1 << 16)
						if err != nil {
							b.Error(err)
							return
						}
						for {
							if _, _, ok := sc.Next(); !ok {
								break
							}
						}
						if err := sc.Err(); err != nil {
							b.Error(err)
						}
						sc.Close()
					}(i)
				}
				wg.Wait()
			}
			b.StopTimer()
			bytes := srcCounter.Snapshot().BytesRead
			for _, c := range counters {
				bytes += c.Snapshot().BytesRead
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "diskB/op")
			b.SetBytes(d.AdjBytes() * P) // logical volume delivered per round
		})
	}
}
