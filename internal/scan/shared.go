package scan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/obs"
)

// sharedRingBlocks is the per-subscriber ring-buffer depth, in broadcast
// blocks. A subscriber that falls more than this far behind stalls the
// broadcaster (and with it the round) until it catches up — the convoy is
// inherent to sharing one physical scan.
const sharedRingBlocks = 4

// errSourceClosed reports a subscription outliving its source.
var errSourceClosed = errors.New("scan: shared source closed")

// sharedSource turns the P concurrent full-file scans of a round of MGT
// passes into one: a single broadcaster goroutine reads the adjacency file
// sequentially and fans every block out to all subscribed runners through
// per-runner ring buffers.
//
// Round formation is deterministic, with no timers: a broadcast round
// starts exactly when every open handle has a scan pending. Runners that
// finish their final pass close their handle, shrinking the quorum, so
// stragglers with more passes left keep scanning without waiting on anyone
// — the worst case (runners never in step) degrades to one private scan
// each, never to a deadlock. This is why Handle documents that a runner
// must close its handle as soon as it is done.
type sharedSource struct {
	d   *graph.Disk
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	pending []*subscription // scans waiting for the next round
	open    int             // open handles = the round quorum
	closed  bool
	done    chan struct{} // broadcaster exit

	// bufPool recycles broadcast buffers between blocks: without it every
	// round allocates garbage equal to the whole adjacency file (one fresh
	// BufBytes slice per block, shared read-only across subscribers).
	// Blocks are reference-counted — the last subscriber to fully consume
	// a block returns its buffer.
	bufPool sync.Pool
}

// block is one broadcast unit: a shared, immutable, entry-aligned byte run.
// Data blocks carry a reference count initialized to the number of
// subscribers the broadcaster delivers to; each consumer (and the
// broadcaster, for a delivery that failed) calls release, and the last
// release returns the buffer to the pool. Error blocks have no count and
// release is a no-op. A subscriber that abandons its pass simply never
// releases — the buffer falls out of the pool cycle and is reclaimed by
// the GC, which is safe, just not recycled.
type block struct {
	data []byte
	err  error         // terminates the subscriber's pass when non-nil
	refs *atomic.Int32 // remaining releases; nil for error blocks
	src  *sharedSource // pool to return the buffer to
}

// release drops one reference; the last one recycles the buffer.
func (b block) release() {
	if b.refs != nil && b.refs.Add(-1) == 0 {
		b.src.bufPool.Put(b.data[:cap(b.data)])
	}
}

// subscription is one runner's attachment to a broadcast round.
type subscription struct {
	ch       chan block
	canceled chan struct{} // closed by the subscriber's Scan.Close
}

func newShared(d *graph.Disk, cfg Config) *sharedSource {
	s := &sharedSource{d: d, cfg: cfg, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.broadcastLoop()
	// Cancellation waker: nextRound blocks in cond.Wait, which a context
	// cannot interrupt directly, so one goroutine bridges ctx.Done into a
	// Broadcast. It exits with the broadcaster, so a Background context
	// (nil Done channel) leaks nothing.
	go func() {
		select {
		case <-cfg.Ctx.Done():
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		case <-s.done:
		}
	}()
	return s
}

func (s *sharedSource) Kind() SourceKind { return SourceShared }

func (s *sharedSource) IO() ioacct.Stats { return s.cfg.Counter.Snapshot() }

// Close stops the broadcaster. Outstanding subscriptions are failed with
// errSourceClosed rather than left hanging.
func (s *sharedSource) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	return nil
}

func (s *sharedSource) Handle(c *ioacct.Counter) (Handle, error) {
	if c == nil {
		c = ioacct.NewCounter(0)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errSourceClosed
	}
	s.open++
	return &sharedHandle{src: s, c: c}, nil
}

// subscribe queues a scan for the next broadcast round.
func (s *sharedSource) subscribe() (*subscription, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.cfg.Ctx.Err(); err != nil {
		return nil, err
	}
	if s.closed {
		return nil, errSourceClosed
	}
	sub := &subscription{
		ch:       make(chan block, sharedRingBlocks),
		canceled: make(chan struct{}),
	}
	s.pending = append(s.pending, sub)
	s.cond.Broadcast()
	return sub, nil
}

// handleClosed shrinks the round quorum.
func (s *sharedSource) handleClosed() {
	s.mu.Lock()
	s.open--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// broadcastLoop runs rounds until the source closes.
func (s *sharedSource) broadcastLoop() {
	defer close(s.done)
	for {
		subs := s.nextRound()
		if subs == nil {
			return
		}
		s.broadcast(subs)
	}
}

// nextRound blocks until every open handle has a pending scan (the quorum
// rule above), then claims the pending set as the next round. A nil return
// means the source closed; any pending scans are failed.
func (s *sharedSource) nextRound() []*subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || s.cfg.Ctx.Err() != nil {
			reason := errSourceClosed
			if err := s.cfg.Ctx.Err(); err != nil {
				reason = err
			}
			for _, sub := range s.pending {
				// Ring buffer is empty at this point, so the send
				// cannot block; be defensive anyway.
				select {
				case sub.ch <- block{err: reason}:
				default:
				}
			}
			s.pending = nil
			return nil
		}
		if len(s.pending) > 0 && len(s.pending) >= s.open {
			subs := s.pending
			s.pending = nil
			return subs
		}
		s.cond.Wait()
	}
}

// broadcast performs one physical scan of the adjacency file, fanning each
// block out to every live subscriber of the round. Each round records one
// scan.round span (subscriber count + bytes broadcast), so a trace shows
// how many physical scans a run's passes collapsed into.
func (s *sharedSource) broadcast(subs []*subscription) {
	cur := obs.CursorFrom(s.cfg.Ctx)
	span := cur.Begin(obs.SpanScanRound)
	ioBefore := s.cfg.Counter.Snapshot().BytesRead
	defer func() {
		cur.SetAttr(span, "subscribers", int64(len(subs)))
		cur.SetAttr(span, "io_bytes", s.cfg.Counter.Snapshot().BytesRead-ioBefore)
		cur.End(span)
	}()
	live := len(subs)
	dead := make([]bool, len(subs))
	deliver := func(b block) {
		for i, sub := range subs {
			if dead[i] {
				continue
			}
			// The ctx case keeps a stalled subscriber's full ring from
			// wedging the broadcaster (and with it the whole round) past
			// cancellation; the subscriber itself unblocks through its own
			// ctx select in fill.
			select {
			case sub.ch <- b:
			case <-sub.canceled:
				dead[i] = true
				live--
				b.release() // planned delivery that will not happen
			case <-s.cfg.Ctx.Done():
				dead[i] = true
				live--
				b.release()
			}
		}
	}
	fail := func(err error) {
		deliver(block{err: err})
	}

	// OpenAdjData positions at the first vertex's data for either store
	// format; AdjBytes is the matching physical data-area size, so a
	// compressed store broadcasts its (smaller) compressed byte stream.
	f, err := s.d.OpenAdjData()
	if err != nil {
		fail(err)
		return
	}
	defer f.Close()
	r := ioacct.NewReader(f, s.cfg.Counter)
	total := s.d.AdjBytes()
	for sent := int64(0); sent < total && live > 0; {
		if err := s.cfg.Ctx.Err(); err != nil {
			fail(err)
			return
		}
		n := int64(s.cfg.BufBytes)
		if total-sent < n {
			n = total - sent
		}
		// The buffer is shared read-only across all subscribers and
		// consumed asynchronously; a reference count (one per planned
		// delivery) recycles it through the pool once the last subscriber
		// is done with it.
		buf, _ := s.bufPool.Get().([]byte)
		if cap(buf) < int(n) {
			buf = make([]byte, s.cfg.BufBytes)
		}
		data := buf[:n]
		if _, err := io.ReadFull(r, data); err != nil {
			fail(fmt.Errorf("scan: shared broadcast at byte %d of %d: %w", sent, total, err))
			return
		}
		refs := new(atomic.Int32)
		refs.Store(int32(live))
		deliver(block{data: data, refs: refs, src: s})
		sent += n
	}
	for i, sub := range subs {
		if !dead[i] {
			close(sub.ch)
		}
	}
}

// sharedHandle is one reader's access to a shared source: its sequential
// passes subscribe to broadcast rounds.
type sharedHandle struct {
	src    *sharedSource
	c      *ioacct.Counter
	closed bool
}

func (h *sharedHandle) Scan(maxList int) (Scan, error) {
	sub, err := h.src.subscribe()
	if err != nil {
		return nil, err
	}
	d := h.src.d
	if d.Format() == graph.FormatCompressed {
		// The broadcast stream carries the compressed data area; the ring
		// consumer below is the byte source, and the one graph-level decoder
		// turns it into the standard segment stream (plus NextCompressed for
		// the header-pruned pass).
		rf := &sharedScan{sub: sub, ctx: h.src.cfg.Ctx, c: h.c}
		gsc, err := d.NewCompressedScan(rf.fill, rf.Close)
		if err != nil {
			rf.Close()
			return nil, err
		}
		gsc.SetMaxList(maxList)
		return gsc, nil
	}
	bufEntries := int(d.Meta.MaxOutDegree)
	if !d.Meta.Oriented {
		bufEntries = int(d.Meta.MaxDegree)
	}
	if maxList > 0 && maxList < bufEntries {
		bufEntries = maxList
	}
	return &sharedScan{
		cur:     graph.NewSegCursor(d, 0, maxList),
		sub:     sub,
		ctx:     h.src.cfg.Ctx,
		c:       h.c,
		listBuf: make([]graph.Vertex, bufEntries),
		byteBuf: make([]byte, bufEntries*graph.EntrySize),
	}, nil
}

func (h *sharedHandle) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	h.src.handleClosed()
	return nil
}

// sharedScan decodes one subscriber's view of a broadcast round into the
// per-vertex segment stream of graph.Scanner. Time spent blocked on the
// ring buffer is charged to the runner's counter as read-wait time (zero
// bytes, zero ops — the bytes are charged once, to the source counter), so
// the CPU/I-O breakdowns of the paper's figures keep their meaning:
// waiting for the shared disk is I/O time, not CPU time. The wait before
// the round's first block is *not* charged — it measures round formation
// (other runners still computing), not the disk.
type sharedScan struct {
	cur graph.SegCursor
	sub *subscription
	ctx context.Context
	c   *ioacct.Counter

	blk     []byte // unconsumed remainder of the current block
	curBlk  block  // the block blk points into, released once fully consumed
	started bool   // first block received; ring waits now reflect the disk
	listBuf []graph.Vertex
	byteBuf []byte
	err     error
	closed  bool
}

// fill copies the next len(raw) stream bytes into raw, receiving blocks as
// needed.
func (sc *sharedScan) fill(raw []byte) error {
	for len(raw) > 0 {
		if len(sc.blk) == 0 {
			var b block
			var ok bool
			select {
			case b, ok = <-sc.sub.ch:
			default:
				start := time.Now()
				select {
				case b, ok = <-sc.sub.ch:
				case <-sc.ctx.Done():
					return sc.ctx.Err()
				}
				if sc.started {
					sc.c.AddReadWait(time.Since(start))
				}
			}
			sc.started = true
			if !ok {
				return io.ErrUnexpectedEOF
			}
			if b.err != nil {
				return b.err
			}
			sc.curBlk = b
			sc.blk = b.data
		}
		n := copy(raw, sc.blk)
		raw = raw[n:]
		sc.blk = sc.blk[n:]
		if len(sc.blk) == 0 {
			sc.curBlk.release()
			sc.curBlk = block{}
		}
	}
	return nil
}

func (sc *sharedScan) Next() (graph.Vertex, []graph.Vertex, bool) {
	if sc.err != nil {
		return 0, nil, false
	}
	u, d, ok := sc.cur.Step()
	if !ok {
		return 0, nil, false
	}
	if d == 0 {
		return u, sc.listBuf[:0], true
	}
	raw := sc.byteBuf[:d*graph.EntrySize]
	if err := sc.fill(raw); err != nil {
		sc.err = fmt.Errorf("scan: shared scan vertex %d: %w", u, err)
		return 0, nil, false
	}
	list := sc.listBuf[:d]
	graph.DecodePlain(list, raw)
	return u, list, true
}

func (sc *sharedScan) Err() error { return sc.err }

// Close cancels the subscription so an abandoned pass cannot stall the
// broadcaster (and with it every other subscriber of the round).
func (sc *sharedScan) Close() error {
	if !sc.closed {
		sc.closed = true
		close(sc.sub.canceled)
	}
	return nil
}
