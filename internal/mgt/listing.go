package mgt

import (
	"encoding/binary"
	"errors"
	"io"
	"slices"
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
// the head keeps what it lists in memory: a buffer it fills is kept for the
// block and a spare takes its place, and a finished block is parked until
// the head reaches it. With no spare free the runner waits, until one is,
// or the head reaches its block. Nothing touches a file but the output.

// ListBufferBytes is the block buffer each runner of a listing owns: a
// block's triangles collect there and leave it when it fills and when the
// block ends. A constant, like BlockEntries.
const ListBufferBytes = 256 << 10

// ParkBytes is how much of the blocks ahead of the head a listing holds in
// memory besides its runners' buffers: that many bytes of spare block
// buffers, shared by its runners. A runner ahead of the head that finds
// none free waits.
const ParkBytes = 512 << 10

// ListBlockEntries is the cone block of a listing's scan, per round: a run
// with a Listing deals its scan in blocks of at most rounds·ListBlockEntries
// adjacency entries, if that is less than BlockEntries, so that what a
// runner ahead of the head finishes is a block whose triangles mostly fit a
// spare buffer and park, instead of holding the runner until the head
// comes. A block's triangles are spread over the rounds, so a run of many
// rounds finishes blocks as small with a coarser cut, and a finer one would
// pay a write at the head per block for nothing. Only the cut is finer: the
// buffers, the load phase and the path each list takes stay those of
// BlockEntries, so a listing takes a count's steps. A constant:
// EXPERIMENTS.md "Listing blocks" has the wall time of 256 to 8 K.
const ListBlockEntries = 256

// errStopped is what a Listing holds once a runner of its run failed.
var errStopped = errors.New("mgt: listing stopped: a runner of the run failed")

// Listing writes the triangles of one run to one output, as 12-byte
// little-endian triples, in listing order, as the blocks finish. Each runner
// reports to its own ListPart; the listing's memory — its runners' buffers
// and the spares — is allocated once, when it is made.
type Listing struct {
	out   io.Writer
	parts []ListPart
	ids   []graph.Vertex // what the triples name vertex u by: ids[u]; nil is u

	// head is the next block the output is waiting for. Whoever holds that
	// block — the runner working on it, or the runner draining it — is the
	// only one writing to out; head moves, under mu, once it is written.
	head   atomic.Int64
	mu     sync.Mutex
	moved  sync.Cond // on mu: the head moved, a spare was freed, or the listing failed
	parked []parked  // the buffers of blocks finished ahead of the head
	spares [][]byte  // free block buffers of the park budget
	err    error     // the first write that failed, or errStopped

	// In tests: runs, outside mu, when a runner ahead of the head finds no
	// spare free, before it waits for one or for the head.
	beforeWait func(seq int64)
}

// parked is one buffer of a block finished ahead of the head. A block's
// buffers are parked together, in order; a block that listed nothing more
// since its last buffer left is one parked with none.
type parked struct {
	seq int64
	buf []byte
}

// ListPart is one runner's end of a Listing, and the Sink it reports to.
// Between Begin and End the runner's triangles belong to the block numbered
// seq.
type ListPart struct {
	l    *Listing
	buf  []byte
	n    int
	seq  int64
	held [][]byte // full buffers of the block, kept while it is ahead of the head
	err  error
}

// NewListing makes the ordered writer of a run with the given number of
// runners. A non-nil ids renames the vertices: the triples name vertex u
// ids[u] (a ranked store's Perm, to list in original ids).
func NewListing(out io.Writer, runners int, ids []graph.Vertex) *Listing {
	l := newListing(out, runners, ListBufferBytes, ParkBytes/ListBufferBytes)
	l.ids = ids
	return l
}

func newListing(out io.Writer, runners, bufBytes, spares int) *Listing {
	l := &Listing{out: out, parts: make([]ListPart, runners)}
	l.moved.L = &l.mu
	for i := range l.parts {
		l.parts[i] = ListPart{l: l, buf: make([]byte, bufBytes), held: make([][]byte, 0, spares)}
	}
	for range spares {
		l.spares = append(l.spares, make([]byte, bufBytes))
	}
	return l
}

// Part returns runner i's end of the listing.
func (l *Listing) Part(i int) *ListPart { return &l.parts[i] }

// Close reports the first write that failed, or that the run was stopped,
// or, if neither, a finished block that was never written — nil after a
// run that ended every block it numbered.
func (l *Listing) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil && len(l.parked) > 0 {
		return errors.New("mgt: listing: a finished block was never written")
	}
	return l.err
}

// Stop ends the listing after a runner of its run failed: the head may
// never reach the blocks ahead of it, so every runner waiting for a buffer
// wakes and none waits again. From then on End drops what is left of the
// block it closes and returns nil: the run's error is the failed runner's.
func (l *Listing) Stop() { l.fail(errStopped) }

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

// flush empties the full buffer. At the head it is written; ahead of it the
// buffer is kept for the block and a spare takes its place, and with none
// free the runner waits — if the head reaches its block meanwhile, it
// writes what it holds.
func (p *ListPart) flush() {
	l := p.l
	switch {
	case p.err != nil:
	case l.head.Load() == p.seq:
		p.err = p.write()
	default:
		l.mu.Lock()
		p.wait()
		head := l.head.Load() == p.seq
		switch {
		case l.err != nil:
			p.err = l.err
		case !head:
			p.held = append(p.held, p.buf[:p.n])
			p.buf = p.spare()
		}
		l.mu.Unlock()
		if head && p.err == nil {
			p.err = p.write()
		}
	}
	p.n = 0
}

// End closes the block. At the head it is written, and then every block
// finished behind it; ahead of the head it is parked — the buffers kept for
// it, then the one the runner fills, for which it takes a spare, waiting
// as flush does if none is free.
func (p *ListPart) End() error {
	l := p.l
	l.mu.Lock()
	if p.err == nil && l.head.Load() != p.seq {
		if p.n > 0 {
			p.wait()
		}
		if l.err == nil && l.head.Load() != p.seq {
			for _, b := range p.held {
				l.parked = append(l.parked, parked{seq: p.seq, buf: b})
			}
			switch {
			case p.n > 0:
				l.parked = append(l.parked, parked{seq: p.seq, buf: p.buf[:p.n]})
				p.buf = p.spare()
			case len(p.held) == 0:
				l.parked = append(l.parked, parked{seq: p.seq})
			}
			l.mu.Unlock()
			p.n, p.held = 0, p.held[:0]
			return nil
		}
	}
	if p.err == nil {
		p.err = l.err
	}
	l.mu.Unlock()
	if p.err == nil {
		if p.err = p.write(); p.err == nil {
			p.err = l.advance()
		}
	}
	if p.err == errStopped {
		return nil
	}
	return p.err
}

// wait blocks the runner, ahead of the head, until a spare buffer is free,
// the head reaches its block, or the listing fails; l.mu is held.
func (p *ListPart) wait() {
	l := p.l
	if l.beforeWait != nil && p.blocked() {
		l.mu.Unlock()
		l.beforeWait(p.seq)
		l.mu.Lock()
	}
	for p.blocked() {
		l.moved.Wait()
	}
}

// blocked reports whether the runner has to wait; l.mu is held.
func (p *ListPart) blocked() bool {
	l := p.l
	return len(l.spares) == 0 && l.head.Load() != p.seq && l.err == nil
}

// spare takes a free buffer; l.mu is held and one is free.
func (p *ListPart) spare() []byte {
	l := p.l
	b := l.spares[len(l.spares)-1]
	l.spares = l.spares[:len(l.spares)-1]
	return b
}

// write writes what the runner holds of the head block — the buffers it
// kept while the block was ahead, freed as spares, then the one it fills —
// to the output.
func (p *ListPart) write() error {
	l := p.l
	if len(p.held) > 0 {
		for _, b := range p.held {
			if _, err := l.out.Write(b); err != nil {
				return l.fail(err)
			}
		}
		l.mu.Lock()
		for _, b := range p.held {
			l.spares = append(l.spares, b[:cap(b)])
		}
		l.moved.Broadcast()
		l.mu.Unlock()
		clear(p.held)
		p.held = p.held[:0]
	}
	if p.n > 0 {
		if _, err := l.out.Write(p.buf[:p.n]); err != nil {
			return l.fail(err)
		}
		p.n = 0
	}
	return nil
}

// advance moves the head past the block its caller has just written and
// writes every parked block it then comes to, freeing its buffers.
func (l *Listing) advance() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.err == nil {
		h := l.head.Add(1)
		l.moved.Broadcast()
		i := 0
		for i < len(l.parked) && l.parked[i].seq != h {
			i++
		}
		if i == len(l.parked) {
			return nil
		}
		// The block's buffers lie together from i on, in order: only this
		// loop takes any, and others are parked after them.
		for l.err == nil && i < len(l.parked) && l.parked[i].seq == h {
			b := l.parked[i].buf
			l.parked = slices.Delete(l.parked, i, i+1)
			if b == nil {
				continue
			}
			l.mu.Unlock()
			_, err := l.out.Write(b)
			l.mu.Lock()
			if err != nil {
				if l.err == nil {
					l.err = err
				}
				l.moved.Broadcast()
				return err
			}
			l.spares = append(l.spares, b[:cap(b)])
			l.moved.Broadcast()
		}
	}
	return l.err
}

// fail records the listing's first failure, wakes every runner waiting on
// it, and returns err.
func (l *Listing) fail(err error) error {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	l.moved.Broadcast()
	l.mu.Unlock()
	return err
}
