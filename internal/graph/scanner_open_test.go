package graph

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// scannerStores writes one random graph of n vertices in both formats and
// opens them.
func scannerStores(tb testing.TB, n int) []*Disk {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	g, err := FromEdges(n, randomEdges(rng, n, 4*n))
	if err != nil {
		tb.Fatal(err)
	}
	var disks []*Disk
	for _, format := range []Format{FormatPlain, FormatCompressed} {
		base := filepath.Join(tb.TempDir(), string(format))
		if err := WriteCSRFormat(base, "g", g, format); err != nil {
			tb.Fatal(err)
		}
		d, err := Open(base)
		if err != nil {
			tb.Fatal(err)
		}
		disks = append(disks, d)
	}
	return disks
}

// TestScannerOpenWalksNeitherArray: what a scanner's buffers must hold — the
// longest list, the largest encoding — is found once, by Open. Opening a
// scanner on an open Disk reads neither the degree nor the offset array: it
// sizes its buffers from the stored maxima even after both arrays have been
// scribbled on, and allocates the same handful of objects whatever n is.
func TestScannerOpenWalksNeitherArray(t *testing.T) {
	var allocs [2][]float64
	for _, n := range []int{200, 20000} {
		for i, d := range scannerStores(t, n) {
			entries, encoded := d.listCap()
			if entries == 0 || (d.ByteOffs != nil) != (encoded > 0) {
				t.Fatalf("%s n=%d: Open found a longest list of %d entries, %d bytes encoded", d.Format(), n, entries, encoded)
			}
			// A walk would now find lists a thousand times longer.
			degrees, byteOffs := d.Degrees, d.ByteOffs
			d.Degrees = make([]uint32, n)
			for v := range d.Degrees {
				d.Degrees[v] = 1000 * uint32(entries)
			}
			if byteOffs != nil {
				d.ByteOffs = make([]uint64, n+1)
				for v := range d.ByteOffs {
					d.ByteOffs[v] = uint64(v) * 1000 * uint64(encoded)
				}
			}
			sc, err := d.NewScannerAt(0, nil, 4096)
			if err != nil {
				t.Fatal(err)
			}
			switch sc := sc.(type) {
			case *Scanner:
				if len(sc.listBuf) != entries || len(sc.byteBuf) != entries*EntrySize {
					t.Errorf("plain n=%d: buffers of %d entries and %d bytes, want %d and %d", n, len(sc.listBuf), len(sc.byteBuf), entries, entries*EntrySize)
				}
			case *CompressedSeqScan:
				if len(sc.listBuf) != entries+SegmentEntries || len(sc.rawBuf) != encoded {
					t.Errorf("compressed n=%d: buffers of %d entries and %d bytes, want %d and %d", n, len(sc.listBuf), len(sc.rawBuf), entries+SegmentEntries, encoded)
				}
			}
			sc.Close()
			d.Degrees, d.ByteOffs = degrees, byteOffs
			allocs[i] = append(allocs[i], testing.AllocsPerRun(20, func() {
				sc, err := d.NewScannerAt(0, nil, 4096)
				if err != nil {
					t.Fatal(err)
				}
				sc.Close()
			}))
		}
	}
	for i, a := range allocs {
		if a[0] != a[1] || a[0] > 16 {
			t.Errorf("format %d: opening a scanner allocates %.0f objects at n=200 and %.0f at n=20000; want the same few", i, a[0], a[1])
		}
	}
}

// BenchmarkScannerOpen: the cost of opening (and closing) a scanner must not
// grow with the vertex count — a multi-window run opens one per pass.
func BenchmarkScannerOpen(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		for _, d := range scannerStores(b, n) {
			b.Run(fmt.Sprintf("%s/n=%d", d.Format(), n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sc, err := d.NewScannerAt(0, nil, 4096)
					if err != nil {
						b.Fatal(err)
					}
					sc.Close()
				}
			})
		}
	}
}
