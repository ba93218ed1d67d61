package mgt

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"pdtl/internal/graph"
)

// The ordered listing (DESIGN.md §5). A run's listing is its blocks'
// triangles in a fixed order — round by round, block by block, or range by
// range under a named source — and every block is numbered in that order
// before a runner starts it. The runner working on the block the output is
// waiting for, the head, writes straight to the output; when it ends that
// block it writes every later block already finished too. A runner ahead of
// the head never waits: its finished blocks are parked in memory, and what
// does not fit there spills once to a file of its own, to be copied into the
// output by whichever runner reaches it.

// ListBufferBytes is the block buffer each runner of a listing owns: a
// block's triangles collect there and leave it when it fills and when the
// block ends. A constant, like BlockEntries.
const ListBufferBytes = 256 << 10

// ParkBytes is how much of the blocks finished ahead of the head a listing
// holds in memory: that many bytes of spare block buffers, shared by its
// runners. A block that finds none free spills instead.
const ParkBytes = 512 << 10

// ListBlockEntries is the cone block of a listing's scan, per round: a run
// with a Listing deals its scan in blocks of at most rounds·ListBlockEntries
// adjacency entries, if that is less than BlockEntries, so that what a
// runner ahead of the head finishes is a block whose triangles mostly fit a
// spare buffer and park, instead of spilling to be read back. A block's
// triangles are spread over the rounds, so a run of many rounds finishes
// blocks as small with a coarser cut, and a finer one would pay a write at
// the head per block for nothing. Only the cut is finer: the buffers, the
// load phase and the path each list takes stay those of BlockEntries, so a
// listing takes a count's steps. A constant: EXPERIMENTS.md "Listing
// blocks" has the spilled bytes and the wall time of 256 to 8 K.
const ListBlockEntries = 256

// Listing writes the triangles of one run to one output, as 12-byte
// little-endian triples, in listing order, as the blocks finish. Each runner
// reports to its own ListPart; the listing's memory is allocated once, when
// it is made.
type Listing struct {
	out   io.Writer
	dir   string
	parts []ListPart
	ids   []graph.Vertex // what the triples name vertex u by: ids[u]; nil is u

	// head is the next block the output is waiting for. Whoever holds that
	// block — the runner working on it, or the runner draining it — is the
	// only one writing to out; head moves, under mu, once it is written.
	head   atomic.Int64
	mu     sync.Mutex
	parked []parked // blocks finished ahead of the head
	spares [][]byte // free block buffers of the park budget
	err    error    // the first write that failed
	rd     io.LimitedReader
	buf    []byte // what copying a spilled extent goes through if out has no ReadFrom

	// create makes a runner's spill file in dir, once per runner per run at
	// most. It is called through this field — outside what the hot-path
	// allocation check follows — and tests wrap it to count the files.
	create func(dir string) (*os.File, error)

	// In tests: runs after a runner spilled the tail of the finished block
	// seq, before it looks at the head again.
	beforePark func(seq int64)
}

// parked is a finished block waiting for the head: the part of it that went
// to a spill file, then the tail still in a buffer.
type parked struct {
	seq  int64
	ext  extent
	tail []byte
}

// extent is a stretch of a spill file.
type extent struct {
	f      spillFile
	off, n int64
}

// spillFile is a runner's spill file, an *os.File. Runners reach it through
// an interface, as they reach the store (graph.AdjFile): the hot path's
// allocation check does not follow the error values a file's methods box.
type spillFile interface {
	io.ReadSeeker
	io.WriterAt
	io.Closer
	Name() string
}

// ListPart is one runner's end of a Listing, and the Sink it reports to.
// Between Begin and End the runner's triangles belong to the block numbered
// seq.
type ListPart struct {
	l     *Listing
	buf   []byte
	n     int
	seq   int64
	ext   extent    // what of the block spilled so far
	spill spillFile // the runner's spill file, created on its first spill
	size  int64     // bytes written to it
	err   error
}

// NewListing makes the ordered writer of a run with the given number of
// runners. Spill files go in spillDir ("" is the default temp directory);
// Close removes them. A non-nil ids renames the vertices: the triples name
// vertex u ids[u] (a ranked store's Perm, to list in original ids).
func NewListing(out io.Writer, spillDir string, runners int, ids []graph.Vertex) *Listing {
	l := newListing(out, spillDir, runners, ListBufferBytes, ParkBytes/ListBufferBytes)
	l.ids = ids
	return l
}

func newListing(out io.Writer, dir string, runners, bufBytes, spares int) *Listing {
	l := &Listing{out: out, dir: dir, parts: make([]ListPart, runners), create: createSpill}
	if _, ok := out.(io.ReaderFrom); !ok {
		l.buf = make([]byte, 32<<10)
	}
	for i := range l.parts {
		l.parts[i] = ListPart{l: l, buf: make([]byte, bufBytes)}
	}
	for range spares {
		l.spares = append(l.spares, make([]byte, bufBytes))
	}
	return l
}

// Part returns runner i's end of the listing.
func (l *Listing) Part(i int) *ListPart { return &l.parts[i] }

// Close removes the spill files. It reports the first write that failed or,
// if none did, a finished block that was never written — nil after a run
// that ended every block it numbered.
func (l *Listing) Close() error {
	for i := range l.parts {
		if f := l.parts[i].spill; f != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && len(l.parked) > 0 {
		return errors.New("mgt: listing: a finished block was never written")
	}
	return l.err
}

// Triangles implements Sink: u and v are renamed once, and the batch is
// encoded in one loop per stretch of buffer it fills, flushing between
// stretches.
//
//pdtl:hotpath
func (p *ListPart) Triangles(u, v graph.Vertex, ws []graph.Vertex) {
	ids := p.l.ids
	if ids != nil {
		u, v = ids[u], ids[v]
	}
	for len(ws) > 0 {
		k := (len(p.buf) - p.n) / 12
		if k == 0 {
			p.flush()
			continue
		}
		k = min(k, len(ws))
		out := p.buf[p.n : p.n+12*k]
		for i, w := range ws[:k] {
			if ids != nil {
				w = ids[w]
			}
			t := out[12*i : 12*i+12]
			binary.LittleEndian.PutUint32(t, u)
			binary.LittleEndian.PutUint32(t[4:], v)
			binary.LittleEndian.PutUint32(t[8:], w)
		}
		p.n += 12 * k
		ws = ws[k:]
	}
}

// Begin starts the block numbered seq.
func (p *ListPart) Begin(seq int64) { p.seq = seq }

// flush empties the full buffer: to the output if the block is the head, to
// the spill file if not.
func (p *ListPart) flush() {
	switch {
	case p.err != nil:
	case p.l.head.Load() == p.seq:
		p.err = p.write()
	default:
		p.err = p.spillBuf()
	}
	p.n = 0
}

// End closes the block. At the head it is written, and then every block
// finished behind it; ahead of the head it is parked — its tail in a spare
// buffer, or, with none free, spilled after the rest of the block.
func (p *ListPart) End() error {
	l := p.l
	l.mu.Lock()
	if p.err == nil {
		p.err = l.err
	}
	if p.err != nil {
		l.mu.Unlock()
		return p.err
	}
	if l.head.Load() != p.seq {
		if p.n > 0 && len(l.spares) == 0 {
			l.mu.Unlock()
			if p.err = p.spillBuf(); p.err != nil {
				return p.err
			}
			if l.beforePark != nil {
				l.beforePark(p.seq)
			}
			l.mu.Lock()
		}
		// The head may have reached the block while it spilled: then no one
		// else will write it.
		if l.head.Load() != p.seq {
			b := parked{seq: p.seq, ext: p.ext}
			if p.n > 0 {
				b.tail = p.buf[:p.n]
				p.buf = l.spares[len(l.spares)-1]
				l.spares = l.spares[:len(l.spares)-1]
			}
			l.parked = append(l.parked, b)
			l.mu.Unlock()
			p.n, p.ext = 0, extent{}
			return nil
		}
	}
	l.mu.Unlock()
	if p.err = p.write(); p.err == nil {
		p.err = l.advance()
	}
	return p.err
}

// write writes what the runner holds of the head block — the spilled part,
// then the buffered one — to the output.
func (p *ListPart) write() error {
	l := p.l
	if p.ext.n > 0 {
		if err := l.copyExtent(p.ext); err != nil {
			return l.fail(err)
		}
		p.ext = extent{}
	}
	if p.n > 0 {
		if _, err := l.out.Write(p.buf[:p.n]); err != nil {
			return l.fail(err)
		}
		p.n = 0
	}
	return nil
}

// spillBuf appends the buffer to the runner's spill file, as the next bytes
// of the block's extent there.
func (p *ListPart) spillBuf() error {
	if p.spill == nil {
		f, err := p.l.create(p.l.dir)
		if err != nil {
			return p.l.fail(err)
		}
		p.spill = f
	}
	if _, err := p.spill.WriteAt(p.buf[:p.n], p.size); err != nil {
		return p.l.fail(err)
	}
	if p.ext.n == 0 {
		p.ext = extent{f: p.spill, off: p.size}
	}
	p.ext.n += int64(p.n)
	p.size += int64(p.n)
	p.n = 0
	return nil
}

func createSpill(dir string) (*os.File, error) { return os.CreateTemp(dir, "pdtl-spill-*") }

// advance moves the head past the block its caller has just written and
// writes every parked block it then comes to.
func (l *Listing) advance() error {
	l.mu.Lock()
	for {
		h := l.head.Add(1)
		i := 0
		for i < len(l.parked) && l.parked[i].seq != h {
			i++
		}
		if i == len(l.parked) || l.err != nil {
			err := l.err
			l.mu.Unlock()
			return err
		}
		b := l.parked[i]
		l.parked[i] = l.parked[len(l.parked)-1]
		l.parked = l.parked[:len(l.parked)-1]
		l.mu.Unlock()
		err := l.copyExtent(b.ext)
		if err == nil && len(b.tail) > 0 {
			_, err = l.out.Write(b.tail)
		}
		if err != nil {
			return l.fail(err)
		}
		l.mu.Lock()
		if b.tail != nil {
			l.spares = append(l.spares, b.tail[:cap(b.tail)])
		}
	}
}

// copyExtent copies a spilled extent into the output: through the output's
// ReadFrom when it has one — file to file in the kernel when it is a file
// (copy_file_range) — and through buf when it has not.
func (l *Listing) copyExtent(e extent) error {
	if e.n == 0 {
		return nil
	}
	if _, err := e.f.Seek(e.off, io.SeekStart); err != nil {
		return err
	}
	l.rd = io.LimitedReader{R: e.f, N: e.n}
	if rf, ok := l.out.(io.ReaderFrom); ok {
		if _, err := rf.ReadFrom(&l.rd); err != nil {
			return err
		}
	} else {
		for l.rd.N > 0 {
			n, err := l.rd.Read(l.buf)
			if n > 0 {
				if _, werr := l.out.Write(l.buf[:n]); werr != nil {
					return werr
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	if l.rd.N > 0 {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// fail records the listing's first failed write and returns err.
func (l *Listing) fail(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.mu.Unlock()
	return err
}
