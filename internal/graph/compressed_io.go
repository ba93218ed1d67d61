package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"pdtl/internal/ioacct"
)

// CompressedWriter streams a compressed store out vertex by vertex: Add (or
// AddEncoded) covers every vertex exactly once, in id order (an empty list
// for a zero-degree vertex), then Finish writes the .cidx index. This is the
// build-path primitive — extsort's ingest and the orientation write-back
// both emit through it without ever holding the store in memory.
type CompressedWriter struct {
	base string
	f    *os.File
	bw   *bufio.Writer
	enc  ListEncoder
	buf  []byte
	lens []uint32
	err  error
}

// NewCompressedWriter starts <base>.cadj (with its magic) for a store of n
// vertices, under a temp name that Finish publishes (CreateTemp); writes are
// charged to c (nil skips accounting).
func NewCompressedWriter(base string, n int, c *ioacct.Counter) (*CompressedWriter, error) {
	f, err := CreateTemp(CAdjPath(base))
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	if c != nil {
		w = ioacct.NewWriter(f, c)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(cadjMagic[:]); err != nil {
		Discard(f)
		return nil, err
	}
	return &CompressedWriter{base: base, f: f, bw: bw, lens: make([]uint32, 0, n)}, nil
}

// Add appends the next vertex's sorted adjacency list.
func (w *CompressedWriter) Add(list []Vertex) error {
	if w.err != nil {
		return w.err
	}
	w.buf = w.enc.Append(w.buf[:0], list)
	if len(w.buf) > math.MaxUint32 {
		w.err = fmt.Errorf("graph: compressed list of %d entries encodes to %d bytes", len(list), len(w.buf))
		return w.err
	}
	w.lens = append(w.lens, uint32(len(w.buf)))
	if _, err := w.bw.Write(w.buf); err != nil {
		w.err = err
	}
	return w.err
}

// AddEncoded appends the next len(lens) vertices' already-encoded lists
// verbatim: data is their encodings back to back, lens[i] the bytes of the
// i-th — the write-back path of builds that encode lists in parallel.
func (w *CompressedWriter) AddEncoded(data []byte, lens []uint32) error {
	if w.err != nil {
		return w.err
	}
	w.lens = append(w.lens, lens...)
	if _, err := w.bw.Write(data); err != nil {
		w.err = err
	}
	return w.err
}

// Finish flushes the .cadj file and publishes it, then writes the .cidx
// index; after a failed write it discards the .cadj instead.
func (w *CompressedWriter) Finish() error {
	if w.err != nil {
		Discard(w.f)
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		Discard(w.f)
		return err
	}
	if err := Publish(w.f, CAdjPath(w.base)); err != nil {
		return err
	}
	return writeCIdx(w.base, w.lens)
}

// Discard drops the unfinished .cadj.
func (w *CompressedWriter) Discard() { Discard(w.f) }

// writeCIdx writes the per-vertex byte-length index file, published by
// rename.
func writeCIdx(base string, lens []uint32) error {
	f, err := CreateTemp(CIdxPath(base))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	bw.Write(cidxMagic[:])
	var scratch [binary.MaxVarintLen64]byte
	bw.Write(scratch[:binary.PutUvarint(scratch[:], uint64(len(lens)))])
	for _, l := range lens {
		if _, err := bw.Write(scratch[:binary.PutUvarint(scratch[:], uint64(l))]); err != nil {
			Discard(f)
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		Discard(f)
		return err
	}
	return Publish(f, CIdxPath(base))
}

// readCIdx loads <base>.cidx and returns the per-vertex byte offsets into
// the .cadj data area — ByteOffs[v] is where v's encoding starts, and
// ByteOffs[n] is the data area's total size — and the largest encoding.
func readCIdx(base string, n int) (offs []uint64, maxEncoded int, err error) {
	blob, err := os.ReadFile(CIdxPath(base))
	if err != nil {
		return nil, 0, err
	}
	path := CIdxPath(base)
	if len(blob) < len(cidxMagic) || [4]byte(blob[:4]) != cidxMagic {
		return nil, 0, fmt.Errorf("graph: %s: bad magic (not a compressed index)", path)
	}
	blob = blob[len(cidxMagic):]
	count, sz := binary.Uvarint(blob)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("graph: %s: truncated vertex count", path)
	}
	if count != uint64(n) {
		return nil, 0, fmt.Errorf("graph: %s: index covers %d vertices, store has %d", path, count, n)
	}
	blob = blob[sz:]
	offs = make([]uint64, n+1)
	var run uint64
	for v := 0; v < n; v++ {
		offs[v] = run
		l, sz := binary.Uvarint(blob)
		if sz <= 0 {
			return nil, 0, fmt.Errorf("graph: %s: truncated length for vertex %d", path, v)
		}
		if l > math.MaxUint32 {
			return nil, 0, fmt.Errorf("graph: %s: vertex %d list length %d exceeds 32 bits", path, v, l)
		}
		blob = blob[sz:]
		run += l
		maxEncoded = max(maxEncoded, int(l))
	}
	offs[n] = run
	if len(blob) != 0 {
		return nil, 0, fmt.Errorf("graph: %s: %d trailing bytes", path, len(blob))
	}
	return offs, maxEncoded, nil
}

// WriteCSRFormat writes g to a store rooted at base in the given format;
// WriteCSR is the FormatPlain special case.
func WriteCSRFormat(base, name string, g *CSR, format Format) error {
	if format != FormatCompressed {
		return WriteCSR(base, name, g)
	}
	n := g.NumVertices()
	meta := Meta{
		Name:        name,
		NumVertices: int64(n),
		NumEdges:    g.NumEdges(),
		AdjEntries:  g.AdjEntries(),
		Oriented:    g.Oriented,
		MaxDegree:   g.MaxDegree(),
		Format:      FormatCompressed,
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
	w, err := NewCompressedWriter(base, n, nil)
	if err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		if err := w.Add(g.Adj[g.Offsets[v]:g.Offsets[v+1]]); err != nil {
			w.Finish()
			return err
		}
	}
	return w.Finish()
}

// ConvertStore re-encodes the store rooted at src into format at dst. The
// adjacency content is preserved exactly (the stores are logically
// identical, so triangle listings over them are byte-identical); only the
// physical encoding changes. The degree file, metadata, and — when present —
// the persisted in-degree file of oriented stores are carried over.
func ConvertStore(src, dst string, format Format) error {
	d, err := Open(src)
	if err != nil {
		return err
	}
	if d.Format() == format {
		return fmt.Errorf("graph: %s is already a %s store", src, format)
	}
	n := d.NumVertices()
	meta := d.Meta
	meta.Format = ""
	if format == FormatCompressed {
		meta.Format = FormatCompressed
	}
	if err := WriteMeta(dst, meta); err != nil {
		return err
	}
	if err := WriteUint32s(DegPath(dst), d.Degrees, nil); err != nil {
		return err
	}
	// The .indeg sidecar (load-balancer weights of oriented stores) and a
	// ranked store's .perm are format-independent; carry them along when
	// the source has them.
	for _, ext := range []string{".indeg", ".perm"} {
		if in, err := os.ReadFile(src + ext); err == nil {
			if err := os.WriteFile(dst+ext, in, 0o644); err != nil {
				return err
			}
		}
	}
	sc, err := d.NewScanner(nil, 1<<20)
	if err != nil {
		return err
	}
	defer sc.Close()
	if format == FormatCompressed {
		w, err := NewCompressedWriter(dst, n, nil)
		if err != nil {
			return err
		}
		for {
			_, list, ok := sc.Next()
			if !ok {
				break
			}
			if err := w.Add(list); err != nil {
				w.Finish()
				return err
			}
		}
		if err := sc.Err(); err != nil {
			w.Finish()
			return err
		}
		return w.Finish()
	}
	return writeUint32File(AdjPath(dst), func(emit func(uint32)) {
		for {
			_, list, ok := sc.Next()
			if !ok {
				return
			}
			for _, v := range list {
				emit(uint32(v))
			}
		}
	})
}

// DecodeEntryRange appends entries [lo, hi) of cl to dst. Segments entirely
// outside the range are skipped on their headers alone; surviving segments
// decode into scratch (capacity ≥ SegmentEntries). This is the compressed
// random-access primitive behind window loads and large-vertex re-reads.
func DecodeEntryRange(cl CompressedList, lo, hi int, scratch, dst []Vertex) ([]Vertex, error) {
	if lo >= hi {
		return dst, nil
	}
	if hi > cl.Degree {
		return dst, fmt.Errorf("graph: entry range [%d,%d) beyond degree %d", lo, hi, cl.Degree)
	}
	it := cl.Segments()
	segStart := 0
	for segStart < hi {
		seg, ok := it.Next()
		if !ok {
			if err := it.Err(); err != nil {
				return dst, err
			}
			return dst, fmt.Errorf("graph: compressed list ended at entry %d, want %d", segStart, hi)
		}
		segEnd := segStart + seg.Count
		if segEnd <= lo {
			segStart = segEnd
			continue
		}
		var err error
		scratch = scratch[:0]
		if scratch, err = DecodeSegment(seg, scratch); err != nil {
			return dst, err
		}
		a, b := 0, seg.Count
		if lo > segStart {
			a = lo - segStart
		}
		if hi < segEnd {
			b = hi - segStart
		}
		dst = append(dst, scratch[a:b]...)
		segStart = segEnd
	}
	return dst, nil
}

// SeqScanner is one sequential adjacency pass with graph.Scanner's
// segmentation semantics; both store formats produce the identical
// per-vertex segment stream through it.
type SeqScanner interface {
	// SetMaxList caps the slice length Next returns; must be called before
	// the first Next.
	SetMaxList(maxList int)
	// Next returns the next vertex and its list (or list segment).
	Next() (u Vertex, list []Vertex, ok bool)
	// Err reports the first error encountered by Next.
	Err() error
	// Close releases the scan.
	Close() error
}

// CompressedSeqScan decodes the .cadj byte stream of a compressed store into
// the per-vertex segment stream of SeqScanner, and additionally exposes the
// undecoded per-vertex lists through NextCompressed — the delivery path of
// the header-pruned pass.
//
// The byte stream arrives through a fill callback (reads the next len(p)
// stream bytes — a buffered file read, or a shared-broadcast ring
// consumer). Having one decoder behind every scan source is what keeps the
// segment streams bitwise identical across sources.
//
// Next and NextCompressed are mutually exclusive on one scan: each consumes
// the stream per vertex, but they keep separate vertex cursors.
type CompressedSeqScan struct {
	disk   *Disk
	fill   func([]byte) error
	closer func() error

	cur SegCursor
	// Decoded-entry queue for Next: listBuf[qlo:qhi) holds decoded,
	// not-yet-served entries of the current vertex; vit iterates its
	// remaining segments on demand, so at most maxList+SegmentEntries
	// entries are ever decoded at once.
	listBuf  []Vertex
	qlo, qhi int
	vit      SegIter
	rawBuf   []byte
	scratch  []Vertex

	loadedU Vertex // vertex whose raw bytes are in rawBuf/vit
	loaded  bool

	cv  Vertex // NextCompressed's vertex cursor
	err error
}

// newCompressedSeqScan builds a scan whose bytes come from fill. start is
// the first vertex of the pass; the stream must be positioned at its
// encoding.
func newCompressedSeqScan(d *Disk, start Vertex, fill func([]byte) error, closer func() error) *CompressedSeqScan {
	sc := &CompressedSeqScan{
		disk:    d,
		fill:    fill,
		closer:  closer,
		cur:     NewSegCursor(d, start, 0),
		cv:      start,
		scratch: make([]Vertex, 0, SegmentEntries),
	}
	entries, encoded := d.listCap()
	sc.rawBuf = make([]byte, encoded)
	sc.listBuf = make([]Vertex, entries+SegmentEntries)
	return sc
}

// SetMaxList caps the slice length Next returns. Must be called before the
// first Next.
func (sc *CompressedSeqScan) SetMaxList(maxList int) {
	if maxList > 0 {
		sc.cur.maxList = maxList
		if need := maxList + SegmentEntries; need < len(sc.listBuf) {
			sc.listBuf = sc.listBuf[:need]
		}
	}
}

// listBytes reads vertex u's raw encoding from the stream into rawBuf.
func (sc *CompressedSeqScan) listBytes(u Vertex) ([]byte, error) {
	lo, hi := sc.disk.ByteOffs[u], sc.disk.ByteOffs[u+1]
	raw := sc.rawBuf[:hi-lo]
	if err := sc.fill(raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Next implements SeqScanner.
func (sc *CompressedSeqScan) Next() (Vertex, []Vertex, bool) {
	if sc.err != nil {
		return 0, nil, false
	}
	u, n, ok := sc.cur.Step()
	if !ok {
		return 0, nil, false
	}
	if n == 0 {
		return u, sc.listBuf[:0], true
	}
	if !sc.loaded || sc.loadedU != u { // first segment of a new vertex
		raw, err := sc.listBytes(u)
		if err != nil {
			sc.err = fmt.Errorf("graph: compressed scan vertex %d: %w", u, err)
			return 0, nil, false
		}
		sc.vit = CompressedList{Degree: int(sc.disk.Degrees[u]), Data: raw}.Segments()
		sc.qlo, sc.qhi = 0, 0
		sc.loadedU, sc.loaded = u, true
	}
	// Decode segments until the queue can serve n entries, compacting the
	// queue to the buffer's front first so the append cannot overflow.
	for sc.qhi-sc.qlo < n {
		if sc.qlo > 0 {
			copy(sc.listBuf, sc.listBuf[sc.qlo:sc.qhi])
			sc.qhi -= sc.qlo
			sc.qlo = 0
		}
		seg, ok := sc.vit.Next()
		if !ok {
			err := sc.vit.Err()
			if err == nil {
				err = fmt.Errorf("short list: %d of %d entries", sc.qhi-sc.qlo, n)
			}
			sc.err = fmt.Errorf("graph: compressed scan vertex %d: %w", u, err)
			return 0, nil, false
		}
		out, err := DecodeSegment(seg, sc.listBuf[:sc.qhi])
		if err != nil {
			sc.err = fmt.Errorf("graph: compressed scan vertex %d: %w", u, err)
			return 0, nil, false
		}
		sc.qhi = len(out)
	}
	list := sc.listBuf[sc.qlo : sc.qlo+n]
	sc.qlo += n
	return u, list, true
}

// NextCompressed returns the next vertex's whole list in encoded form. The
// returned CompressedList's Data is valid until the following call.
// Zero-degree vertices yield a zero-Degree list. ok is false at the end of
// the pass or on error — check Err.
func (sc *CompressedSeqScan) NextCompressed() (Vertex, CompressedList, bool) {
	if sc.err != nil {
		return 0, CompressedList{}, false
	}
	if int(sc.cv) >= sc.disk.NumVertices() {
		return 0, CompressedList{}, false
	}
	u := sc.cv
	sc.cv++
	deg := int(sc.disk.Degrees[u])
	if deg == 0 {
		return u, CompressedList{}, true
	}
	raw, err := sc.listBytes(u)
	if err != nil {
		sc.err = fmt.Errorf("graph: compressed scan vertex %d: %w", u, err)
		return 0, CompressedList{}, false
	}
	return u, CompressedList{Degree: deg, Data: raw}, true
}

// Err implements SeqScanner.
func (sc *CompressedSeqScan) Err() error { return sc.err }

// Close implements SeqScanner.
func (sc *CompressedSeqScan) Close() error {
	if sc.closer != nil {
		return sc.closer()
	}
	return nil
}

// NewCompressedScan adapts an externally supplied byte stream (fill reads
// the next len(p) data-area bytes, positioned at vertex 0) into a
// CompressedSeqScan — the shared broadcaster's ring consumer plugs in here.
// closer runs on Close (nil for none). d must be a compressed store.
func (d *Disk) NewCompressedScan(fill func([]byte) error, closer func() error) (*CompressedSeqScan, error) {
	if d.Format() != FormatCompressed {
		return nil, fmt.Errorf("graph: %s is not a compressed store", d.Base)
	}
	return newCompressedSeqScan(d, 0, fill, closer), nil
}

// AdjFile is one open descriptor on a store's adjacency data area, read by
// byte offset within the area — a plain store's entry i sits at offset
// i·EntrySize, a compressed store's vertex v at ByteOffs[v] — whichever file
// holds it. Reads are positional, so the value is safe for concurrent use.
type AdjFile struct {
	f    *os.File // nil when Disk.AdjData serves the area
	r    io.ReaderAt
	base int64 // the data area's offset in the file
}

// OpenAdjFile opens the adjacency data area for positional reads, charging
// I/O to c (nil allocates a private counter). A Disk whose AdjData is set
// is read through it and charges nothing.
func (d *Disk) OpenAdjFile(c *ioacct.Counter) (*AdjFile, error) {
	if d.AdjData != nil {
		return &AdjFile{r: d.AdjData}, nil
	}
	if c == nil {
		c = ioacct.NewCounter(0)
	}
	path, base := AdjPath(d.Base), int64(0)
	if d.Format() == FormatCompressed {
		path, base = CAdjPath(d.Base), int64(cadjHeaderLen)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &AdjFile{f: f, r: ioacct.NewReaderAt(f, c), base: base}, nil
}

// ReadAt fills p with the data-area bytes starting at off; a short read is
// an error (io.ErrUnexpectedEOF or io.EOF, returned bare).
//
//pdtl:hotpath
func (a *AdjFile) ReadAt(p []byte, off int64) error {
	_, err := a.r.ReadAt(p, a.base+off)
	return err
}

// Close releases the descriptor.
func (a *AdjFile) Close() error {
	if a.f == nil {
		return nil
	}
	return a.f.Close()
}
