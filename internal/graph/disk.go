package graph

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"pdtl/internal/ioacct"
)

// EntrySize is the on-disk size in bytes of one adjacency or degree entry.
const EntrySize = 4

// Meta describes an on-disk graph. It is stored as JSON in <base>.meta so
// tools and humans can inspect datasets without decoding the binary files.
type Meta struct {
	// Name is a human-readable dataset label (e.g. "powerlaw").
	Name string `json:"name"`
	// NumVertices is |V|.
	NumVertices int64 `json:"num_vertices"`
	// NumEdges is the undirected edge count m.
	NumEdges uint64 `json:"num_edges"`
	// AdjEntries is the entry count of the .adj file: 2m for undirected
	// graphs, m for oriented ones.
	AdjEntries uint64 `json:"adj_entries"`
	// Oriented reports whether the store holds an orientation G* rather
	// than the bidirectional G.
	Oriented bool `json:"oriented"`
	// MaxDegree is the maximum degree of G (before orientation).
	MaxDegree uint32 `json:"max_degree"`
	// MaxOutDegree is d*max, the maximum out-degree after orientation; it
	// bounds MGT's nm/nmp scratch arrays. Zero for unoriented stores.
	MaxOutDegree uint32 `json:"max_out_degree,omitempty"`
	// Format is the adjacency encoding: empty or "plain" for the uint32
	// .adj layout, "compressed" for the delta-varint/bitmap segment layout
	// in .cadj/.cidx (see compressed.go). Open auto-detects from this
	// field.
	Format Format `json:"format,omitempty"`
	// Ranked reports that an oriented store numbers its vertices by the
	// degree-based order counting down — id = n−1−rank, hubs first — so every
	// out-neighbour of a vertex has a smaller id than the vertex itself.
	// <base>.perm then holds each vertex's original id (Disk.Perm).
	Ranked bool `json:"ranked,omitempty"`
}

// Paths for the three files of the store.
func metaPath(base string) string { return base + ".meta" }

// DegPath returns the path of the degree file for the store rooted at base.
func DegPath(base string) string { return base + ".deg" }

// AdjPath returns the path of the adjacency file for the store rooted at
// base.
func AdjPath(base string) string { return base + ".adj" }

// MetaPath returns the path of the metadata file for the store rooted at
// base.
func MetaPath(base string) string { return metaPath(base) }

// PermPath returns the path of a ranked store's permutation file: 4·n
// bytes, little-endian, entry x the original id of vertex x.
func PermPath(base string) string { return base + ".perm" }

// WriteCSR writes g to the three files rooted at base, with name recorded in
// the metadata.
func WriteCSR(base, name string, g *CSR) error {
	n := g.NumVertices()
	meta := Meta{
		Name:        name,
		NumVertices: int64(n),
		NumEdges:    g.NumEdges(),
		AdjEntries:  g.AdjEntries(),
		Oriented:    g.Oriented,
		MaxDegree:   g.MaxDegree(),
	}
	if g.Oriented {
		meta.MaxOutDegree = g.MaxDegree()
	}
	if err := WriteMeta(base, meta); err != nil {
		return err
	}
	if err := WriteUint32s(DegPath(base), g.Degrees(), nil); err != nil {
		return err
	}
	return WriteUint32s(AdjPath(base), g.Adj, nil)
}

// WriteMeta writes only the metadata file, published by rename like every
// file of a store (CreateTemp).
func WriteMeta(base string, meta Meta) error {
	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("graph: marshal meta: %w", err)
	}
	f, err := CreateTemp(metaPath(base))
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		Discard(f)
		return err
	}
	return Publish(f, metaPath(base))
}

// CreateTemp creates a file under a unique name beside path, with
// os.Create's permissions, for Publish to rename to path once it is whole:
// a reader that has path open keeps reading the file it opened, and none
// sees a file half written.
func CreateTemp(path string) (*os.File, error) {
	for range 100 {
		f, err := os.OpenFile(path+".tmp-"+strconv.FormatUint(rand.Uint64(), 36), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
	return nil, fmt.Errorf("graph: could not create a unique temp file beside %s", path)
}

// Publish closes f, made by CreateTemp, and renames it to path; if either
// fails, f is removed.
func Publish(f *os.File, path string) error {
	err := f.Close()
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// PublishTarget is the file that publishing to path, by CreateTemp and
// Publish, should replace: path itself when it is absent or a regular file;
// for a symlink, the path it points to, by the same rule (so a dangling
// link's target is created); and for anything else — a FIFO, a device, a
// directory, a chain of more than 40 links — an error, since a rename would
// replace the node instead of writing into it. Writers of outputs a caller
// names (a listing) call it before any work.
func PublishTarget(path string) (string, error) {
	for hops := 0; ; hops++ {
		fi, err := os.Lstat(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			return path, nil
		case err != nil:
			return "", err
		case fi.Mode()&fs.ModeSymlink != 0 && hops < 40:
			link, err := os.Readlink(path)
			if err != nil {
				return "", err
			}
			if !filepath.IsAbs(link) {
				link = filepath.Join(filepath.Dir(path), link)
			}
			path = link
		case !fi.Mode().IsRegular():
			return "", fmt.Errorf("graph: output %s is not a regular file (%s): it is written by renaming a file over it", path, fi.Mode().Type())
		default:
			return path, nil
		}
	}
}

// Discard closes f, made by CreateTemp, and removes it.
func Discard(f *os.File) {
	f.Close()
	os.Remove(f.Name())
}

// ReadMeta reads the metadata file of the store rooted at base.
func ReadMeta(base string) (Meta, error) {
	blob, err := os.ReadFile(metaPath(base))
	if err != nil {
		return Meta{}, fmt.Errorf("graph: read meta: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return Meta{}, fmt.Errorf("graph: parse meta %s: %w", metaPath(base), err)
	}
	return meta, nil
}

// WriteUint32s writes xs to path little-endian, EntrySize bytes each (a
// degree, in-degree or permutation array), counting the bytes on c unless
// c is nil. The file is published by rename (CreateTemp).
func WriteUint32s(path string, xs []uint32, c *ioacct.Counter) error {
	f, err := CreateTemp(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	if c != nil {
		w = ioacct.NewWriter(f, c)
	}
	var chunk [64 << 10]byte
	for len(xs) > 0 && err == nil {
		n := min(len(xs), len(chunk)/EntrySize)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint32(chunk[i*EntrySize:], x)
		}
		_, err = w.Write(chunk[:n*EntrySize])
		xs = xs[n:]
	}
	if err != nil {
		Discard(f)
		return err
	}
	return Publish(f, path)
}

func writeUint32File(path string, fill func(emit func(uint32))) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var scratch [EntrySize]byte
	var werr error
	fill(func(x uint32) {
		if werr != nil {
			return
		}
		binary.LittleEndian.PutUint32(scratch[:], x)
		_, werr = bw.Write(scratch[:])
	})
	if werr != nil {
		f.Close()
		return werr
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Disk is an opened on-disk graph: its metadata, its degree array (which the
// paper assumes fits in memory for orientation and which every MGT runner
// needs for walking the adjacency file), and the derived per-vertex offsets
// into the adjacency file.
type Disk struct {
	Meta Meta
	Base string
	// Degrees[v] is the (out-)degree of v.
	Degrees []uint32
	// Offsets[v] is the entry index of v's list in the .adj file;
	// Offsets[NumVertices] == AdjEntries.
	Offsets []uint64
	// ByteOffs[v] is the byte offset of v's encoding in the .cadj data
	// area, with ByteOffs[NumVertices] the data area's size; nil for plain
	// stores.
	ByteOffs []uint64
	// AdjData, when non-nil, serves the adjacency data area in place of the
	// store's file: OpenAdjFile reads from it, uncharged. A store with no
	// files behind it (a live graph's merged view) sets it.
	AdjData io.ReaderAt

	// What a scanner's buffers must hold — the longest list and the largest
	// encoding — found once, by Open's own walk of the two arrays, so that
	// opening a scanner costs nothing per vertex. A Disk built as a literal
	// (sized false) has them recomputed on demand.
	sized      bool
	maxDeg     uint32
	maxEncoded int

	// A ranked store's .perm, loaded by the first Perm call.
	permOnce sync.Once
	perm     []Vertex
	permErr  error
}

// Perm returns the original ids of a ranked store's vertices — Perm()[x] is
// the id vertex x had before orientation — reading and checking <base>.perm
// on the first call only; nil for a store that is not ranked. Only runs that
// hand vertex ids to a user need it: a count never does.
func (d *Disk) Perm() ([]Vertex, error) {
	if !d.Meta.Ranked {
		return nil, nil
	}
	d.permOnce.Do(func() { d.perm, d.permErr = loadPerm(d.Base, d.NumVertices()) })
	return d.perm, d.permErr
}

// loadPerm reads the permutation file of a ranked store of n vertices and
// checks that it is one: exactly 4·n bytes, every id below n, none twice. A
// file that is not fails with an error naming it, so a damaged .perm can
// never turn into a wrong listing.
func loadPerm(base string, n int) ([]Vertex, error) {
	path := PermPath(base)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graph: ranked store: %w", err)
	}
	if len(blob) != n*EntrySize {
		return nil, fmt.Errorf("graph: %s is %d bytes, want %d for %d vertices", path, len(blob), n*EntrySize, n)
	}
	perm := make([]Vertex, n)
	seen := make([]uint64, (n+63)/64)
	for x := range perm {
		v := binary.LittleEndian.Uint32(blob[x*EntrySize:])
		switch {
		case int(v) >= n:
			return nil, fmt.Errorf("graph: %s: entry %d is %d, not a vertex of %d", path, x, v, n)
		case seen[v/64]&(1<<(v%64)) != 0:
			return nil, fmt.Errorf("graph: %s: vertex %d appears twice", path, v)
		}
		seen[v/64] |= 1 << (v % 64)
		perm[x] = v
	}
	return perm, nil
}

// listCap reports the longest list's entry count and, for a compressed
// store, the largest per-vertex encoding in bytes.
func (d *Disk) listCap() (entries, encoded int) {
	if d.sized {
		return int(d.maxDeg), d.maxEncoded
	}
	for v, deg := range d.Degrees {
		entries = max(entries, int(deg))
		if d.ByteOffs != nil {
			encoded = max(encoded, int(d.ByteOffs[v+1]-d.ByteOffs[v]))
		}
	}
	return entries, encoded
}

// Format reports the store's adjacency encoding (empty metadata means
// plain).
func (d *Disk) Format() Format {
	if d.Meta.Format == FormatCompressed {
		return FormatCompressed
	}
	return FormatPlain
}

// Open loads the metadata and degree file of the store rooted at base.
// The adjacency file is opened on demand by the scanners.
func Open(base string) (*Disk, error) {
	meta, err := ReadMeta(base)
	if err != nil {
		return nil, err
	}
	degrees, err := readUint32File(DegPath(base), int(meta.NumVertices))
	if err != nil {
		return nil, err
	}
	n := len(degrees)
	offsets := make([]uint64, n+1)
	var run uint64
	var maxDeg uint32
	for v, d := range degrees {
		offsets[v] = run
		run += uint64(d)
		maxDeg = max(maxDeg, d)
	}
	offsets[n] = run
	if run != meta.AdjEntries {
		return nil, fmt.Errorf("graph: %s: degree sum %d != meta adj_entries %d", base, run, meta.AdjEntries)
	}
	d := &Disk{Meta: meta, Base: base, Degrees: degrees, Offsets: offsets, sized: true, maxDeg: maxDeg}
	switch meta.Format {
	case "", FormatPlain:
	case FormatCompressed:
		byteOffs, maxEncoded, err := readCIdx(base, n)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(CAdjPath(base))
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		var magic [4]byte
		_, err = io.ReadFull(f, magic[:])
		f.Close()
		if err != nil || magic != cadjMagic {
			return nil, fmt.Errorf("graph: %s: bad magic (not a compressed adjacency file)", CAdjPath(base))
		}
		if want := int64(cadjHeaderLen) + int64(byteOffs[n]); fi.Size() != want {
			return nil, fmt.Errorf("graph: %s: compressed adjacency file is %d bytes, index says %d", base, fi.Size(), want)
		}
		d.ByteOffs, d.maxEncoded = byteOffs, maxEncoded
	default:
		return nil, fmt.Errorf("graph: %s: unknown store format %q", base, meta.Format)
	}
	return d, nil
}

func readUint32File(path string, count int) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]uint32, count)
	buf := make([]byte, count*EntrySize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("graph: read %s: %w", path, err)
	}
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[i*EntrySize:])
	}
	return out, nil
}

// OpenAdj opens the adjacency file for reading.
func (d *Disk) OpenAdj() (*os.File, error) {
	return os.Open(AdjPath(d.Base))
}

// OpenAdjData opens the adjacency data for sequential reading, positioned
// at the first vertex's data regardless of format: the .adj file, or the
// .cadj file seeked past its magic. The following AdjBytes bytes are the
// whole data area — the unit the shared broadcaster streams.
func (d *Disk) OpenAdjData() (*os.File, error) {
	if d.Format() != FormatCompressed {
		return d.OpenAdj()
	}
	f, err := os.Open(CAdjPath(d.Base))
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(int64(cadjHeaderLen), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// NumVertices reports |V|.
func (d *Disk) NumVertices() int { return len(d.Degrees) }

// AdjBytes reports the physical size of the adjacency data area in bytes:
// AdjEntries·4 for plain stores, the total encoded size for compressed
// ones. It is the per-pass sequential read volume of a scan.
func (d *Disk) AdjBytes() int64 {
	if d.Format() == FormatCompressed {
		return int64(d.ByteOffs[d.NumVertices()])
	}
	return int64(d.Meta.AdjEntries) * EntrySize
}

// VertexAt returns the vertex whose adjacency list contains global entry
// index pos, by binary search over the offsets.
func (d *Disk) VertexAt(pos uint64) Vertex {
	lo, hi := 0, d.NumVertices()
	for lo < hi {
		mid := (lo + hi) / 2
		if d.Offsets[mid+1] <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Vertex(lo)
}

// LoadCSR reads the whole graph into memory, decoding compressed stores.
// Intended for small graphs, tests, and the in-memory baselines.
func (d *Disk) LoadCSR() (*CSR, error) {
	if d.Format() == FormatCompressed {
		sc, err := d.NewScanner(nil, 1<<20)
		if err != nil {
			return nil, err
		}
		defer sc.Close()
		adj := make([]Vertex, 0, d.Meta.AdjEntries)
		for {
			_, list, ok := sc.Next()
			if !ok {
				break
			}
			adj = append(adj, list...)
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		if uint64(len(adj)) != d.Meta.AdjEntries {
			return nil, fmt.Errorf("graph: decoded %d entries, meta says %d", len(adj), d.Meta.AdjEntries)
		}
		return &CSR{Offsets: d.Offsets, Adj: adj, Oriented: d.Meta.Oriented}, nil
	}
	adjFile, err := d.OpenAdj()
	if err != nil {
		return nil, err
	}
	defer adjFile.Close()
	adj := make([]Vertex, d.Meta.AdjEntries)
	buf := bufio.NewReaderSize(adjFile, 1<<20)
	var scratch [EntrySize]byte
	for i := range adj {
		if _, err := io.ReadFull(buf, scratch[:]); err != nil {
			return nil, fmt.Errorf("graph: read adj: %w", err)
		}
		adj[i] = binary.LittleEndian.Uint32(scratch[:])
	}
	return &CSR{Offsets: d.Offsets, Adj: adj, Oriented: d.Meta.Oriented}, nil
}

// OriginalCSR is LoadCSR in the ids the vertices had before orientation: a
// ranked store's lists are mapped through Perm and sorted again; any other
// store reads as LoadCSR reads it.
func (d *Disk) OriginalCSR() (*CSR, error) {
	csr, err := d.LoadCSR()
	if err != nil || !d.Meta.Ranked {
		return csr, err
	}
	perm, err := d.Perm()
	if err != nil {
		return nil, err
	}
	n := csr.NumVertices()
	offsets := make([]uint64, n+1)
	for x := 0; x < n; x++ {
		offsets[perm[x]+1] = csr.Offsets[x+1] - csr.Offsets[x]
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]Vertex, len(csr.Adj))
	for x := 0; x < n; x++ {
		list := adj[offsets[perm[x]]:offsets[perm[x]+1]]
		for i, y := range csr.Neighbors(Vertex(x)) {
			list[i] = perm[y]
		}
		slices.Sort(list)
	}
	return &CSR{Offsets: offsets, Adj: adj, Oriented: csr.Oriented}, nil
}

// SegCursor is the vertex/segment iteration order of a sequential
// adjacency pass: vertices in id order, zero-degree vertices yielding one
// empty segment, and lists longer than the cap split into consecutive
// sorted segments under the same vertex — how the small-degree assumption
// of the paper's Section IV-A is removed (its footnote 1).
//
// Every sequential reader of the adjacency data — Scanner here, and every
// scan source in internal/scan — drives its decoding off this one type, so
// the "bitwise identical segment streams across sources" contract has a
// single implementation.
type SegCursor struct {
	disk    *Disk
	maxList int // segment cap; 0 = whole lists
	next    Vertex
	remain  int // entries of the current vertex still unread
}

// NewSegCursor returns a cursor over d's vertices starting at start, with
// segments capped at maxList entries (0 = whole lists).
func NewSegCursor(d *Disk, start Vertex, maxList int) SegCursor {
	return SegCursor{disk: d, next: start, maxList: maxList}
}

// Step returns the next segment's vertex and entry count; n is 0 for a
// zero-degree vertex, and ok is false at the end of the pass.
func (c *SegCursor) Step() (u Vertex, n int, ok bool) {
	if c.remain > 0 {
		u = c.next - 1
		n = c.remain
	} else {
		if int(c.next) >= c.disk.NumVertices() {
			return 0, 0, false
		}
		u = c.next
		c.next++
		n = int(c.disk.Degrees[u])
		if n == 0 {
			return u, 0, true
		}
	}
	if c.maxList > 0 && n > c.maxList {
		c.remain = n - c.maxList
		n = c.maxList
	} else {
		c.remain = 0
	}
	return u, n, true
}

// Scanner streams the adjacency file list by list, in vertex order, through
// an accounting reader. It is the sequential "read N(u) from disk" primitive
// of Algorithm 2. Segmentation follows SegCursor.
type Scanner struct {
	disk    *Disk
	file    *os.File
	r       *bufio.Reader
	cur     SegCursor
	listBuf []Vertex
	byteBuf []byte
	err     error
}

// SetMaxList caps the slice length Next returns; longer lists are split
// into consecutive segments. Must be called before the first Next.
func (s *Scanner) SetMaxList(maxList int) {
	if maxList > 0 && maxList < len(s.listBuf) {
		s.cur.maxList = maxList
		s.listBuf = s.listBuf[:maxList]
		s.byteBuf = s.byteBuf[:maxList*EntrySize]
	}
}

// NewScanner opens an adjacency scan charged to counter c (which may be
// shared with other files of the same worker). bufSize is the read buffer in
// bytes; non-positive selects 1 MiB. The concrete scanner matches the store
// format; both yield the identical per-vertex segment stream.
func (d *Disk) NewScanner(c *ioacct.Counter, bufSize int) (SeqScanner, error) {
	return d.NewScannerAt(0, c, bufSize)
}

// NewScannerAt opens an adjacency scan positioned at the start of vertex
// start's list; Next will yield vertices start, start+1, ... in order.
func (d *Disk) NewScannerAt(start Vertex, c *ioacct.Counter, bufSize int) (SeqScanner, error) {
	if int(start) > d.NumVertices() {
		return nil, fmt.Errorf("graph: scanner start vertex %d out of range", start)
	}
	if bufSize <= 0 {
		bufSize = 1 << 20
	}
	if d.Format() == FormatCompressed {
		f, err := os.Open(CAdjPath(d.Base))
		if err != nil {
			return nil, err
		}
		if _, err := f.Seek(int64(cadjHeaderLen)+int64(d.ByteOffs[start]), io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		var r io.Reader = f
		if c != nil {
			r = ioacct.NewReader(f, c)
		}
		br := bufio.NewReaderSize(r, bufSize)
		fill := func(p []byte) error {
			_, err := io.ReadFull(br, p)
			return err
		}
		return newCompressedSeqScan(d, start, fill, f.Close), nil
	}
	f, err := d.OpenAdj()
	if err != nil {
		return nil, err
	}
	if start > 0 {
		if _, err := f.Seek(int64(d.Offsets[start])*EntrySize, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
	}
	var r io.Reader = f
	if c != nil {
		r = ioacct.NewReader(f, c)
	}
	entries, _ := d.listCap()
	return &Scanner{
		disk:    d,
		file:    f,
		r:       bufio.NewReaderSize(r, bufSize),
		cur:     NewSegCursor(d, start, 0),
		listBuf: make([]Vertex, entries),
		byteBuf: make([]byte, entries*EntrySize),
	}, nil
}

// Next returns the next vertex and its neighbor list (or list segment in
// segmented mode — the same vertex may be yielded several times, with
// consecutive sorted segments). The returned slice is reused by subsequent
// calls. ok is false when the scan is complete or an error occurred; check
// Err afterwards.
func (s *Scanner) Next() (u Vertex, list []Vertex, ok bool) {
	if s.err != nil {
		return 0, nil, false
	}
	u, d, ok := s.cur.Step()
	if !ok {
		return 0, nil, false
	}
	if d == 0 {
		return u, s.listBuf[:0], true
	}
	raw := s.byteBuf[:d*EntrySize]
	if _, err := io.ReadFull(s.r, raw); err != nil {
		s.err = fmt.Errorf("graph: scan vertex %d: %w", u, err)
		return 0, nil, false
	}
	list = s.listBuf[:d]
	DecodePlain(list, raw)
	return u, list, true
}

// DecodePlain decodes len(dst) adjacency entries from raw, the bytes of a
// plain store: little-endian, EntrySize each.
//
//pdtl:hotpath
func DecodePlain(dst []Vertex, raw []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(raw[i*EntrySize:])
	}
}

// Err reports the first error encountered by Next.
func (s *Scanner) Err() error { return s.err }

// Close releases the underlying file.
func (s *Scanner) Close() error { return s.file.Close() }
