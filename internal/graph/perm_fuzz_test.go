package graph

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadPerm feeds arbitrary bytes to a ranked store's .perm loader for
// an arbitrary vertex count. It must never panic, and it must accept a file
// exactly when the file is a permutation of [0, n): 4·n bytes, every id
// below n, none twice — returning those ids in order.
func FuzzLoadPerm(f *testing.F) {
	perm := func(ids ...uint32) []byte {
		out := make([]byte, 0, 4*len(ids))
		for _, v := range ids {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		return out
	}
	f.Add(perm(2, 0, 1), uint16(3))    // a permutation
	f.Add(perm(0, 1, 2, 3), uint16(3)) // one entry too many
	f.Add(perm(0, 1), uint16(3))       // one too few
	f.Add(perm(0, 3, 1), uint16(3))    // an id out of range
	f.Add(perm(1, 1, 0), uint16(3))    // a duplicate
	f.Add([]byte{0, 0, 0}, uint16(1))  // not whole entries
	f.Add([]byte{}, uint16(0))         // the empty store
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, blob []byte, n16 uint16) {
		n := int(n16)
		base := filepath.Join(dir, "g")
		if err := os.WriteFile(PermPath(base), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadPerm(base, n)
		valid := len(blob) == 4*n
		seen := make(map[uint32]bool, n)
		for i := 0; valid && i < n; i++ {
			v := binary.LittleEndian.Uint32(blob[4*i:])
			valid = int(v) < n && !seen[v]
			seen[v] = true
		}
		switch {
		case valid && err != nil:
			t.Fatalf("a permutation of %d ids was refused: %v", n, err)
		case !valid && err == nil:
			t.Fatalf("%d bytes for %d vertices were accepted, and are no permutation", len(blob), n)
		case err != nil:
			return
		}
		if len(got) != n {
			t.Fatalf("%d ids loaded for %d vertices", len(got), n)
		}
		for i, v := range got {
			if want := binary.LittleEndian.Uint32(blob[4*i:]); v != want {
				t.Fatalf("entry %d loaded as %d, the file says %d", i, v, want)
			}
		}
	})
}
