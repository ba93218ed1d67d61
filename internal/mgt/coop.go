package mgt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/obs"
)

// Cooperative windows (DESIGN.md §5, §7). PDTL gives each of a node's P
// processors a private M-entry window and a private end-to-end scan per
// window. Here the node's P·M entries are one window, loaded once and shared
// read-only by P runners, and the scan of a round is dealt: the vertex ids
// are cut into cone blocks, and whichever runner is free takes the next one
// off an atomic cursor, reads exactly its bytes, and feeds its lists to the
// same cone routine, against its own mark array. Half the rounds of P
// private windows, each list parsed once per round instead of P times, no
// cost model, and nothing for a fast runner to wait on but the end of the
// round. With one runner it is the paper's private window (Runner).

// BlockEntries is the size of a cone block, and of the buffers a dealt
// runner owns: vertex ids are cut into blocks of at most this many adjacency
// entries (and as many bytes as they take in a plain store), or of the
// window's P·M entries if that is less, so that a list longer than the
// window — the paper's large vertex — is a block by itself and arrives in
// pieces. A constant, not an option: EXPERIMENTS.md "Cooperative windows"
// has 4 K–16 K within 5 % of each other and 64 K 10 % behind — smaller
// blocks pay a read and a cursor bump per few lists, larger ones leave a
// runner idle at the end of a round.
const BlockEntries = 8 << 10

// arenaShare and minArenaWords size the bitset arena of a run of several
// rounds (dealer.load): room for at least one word per arenaShare window
// entries — an eighth of the window's own bytes — and at least
// minArenaWords, so that a small window builds every bitset it measures
// (they take at most half a word per entry). EXPERIMENTS.md "Dense window
// lists" has what the benchmark's stores need.
const (
	arenaShare    = 16
	minArenaWords = 4 << 10
)

// DealConfig parameterizes a cooperative run.
type DealConfig struct {
	// Workers is P, the number of runners sharing the window.
	Workers int
	// MemEdges is M, one runner's share of the window: it holds
	// Workers·MemEdges entries (or the longest span, if that is less).
	MemEdges int
	// Sinks, when non-nil, has one entry per runner, each hearing of the
	// triangles of the blocks its runner was dealt.
	Sinks []Sink
	// Listing, when non-nil, has one part per runner and gets the run's
	// triangles in listing order (see RunDealt); Sinks must then be nil.
	Listing *Listing
	// Cone, when not empty, restricts the run to the cone vertices
	// [Cone.Lo, Cone.Hi) — vertex ids, not entries: a round deals only the
	// blocks (ConeBlocks) of that range, clipped to it. The zero Range deals
	// every block. A cluster node runs a stealing unit this way: a run of
	// whole blocks of one window.
	Cone balance.Range
	// Held, when non-nil, is a window kept between runs: a round whose
	// bounds are the ones it holds probes it and skips the load phase, and
	// any other round is loaded into it. Runs may share a Held window only
	// while every one of them is a round it holds — loading is writing.
	Held *Window

	// In tests: blockEntries overrides BlockEntries (lists a few dozen
	// entries long then arrive in pieces), arenaWords the bitset arena's
	// least size, afterBlock runs between a runner's blocks, and markOnly
	// builds no bitsets.
	blockEntries int
	arenaWords   int
	afterBlock   func()
	markOnly     bool
}

// dealer is the state the runners of a cooperative run share.
type dealer struct {
	d       *graph.Disk
	cfg     DealConfig
	runners []*dealt
	done    <-chan struct{} // the run's ctx.Done()
	// A block is at most blockEntries entries and blockBytes bytes of the
	// store; cuts are the block boundaries: block b is the vertices
	// [cuts[b], cuts[b+1]). The load and build phases deal those blocks, and
	// so does the scan of a count; the scan of a listing may deal finer
	// scanCuts (ListBlockEntries), so that a block finished ahead of the head
	// parks instead of holding its runner. Both cuts leave every list to the
	// same path, read whole or streamed, against blockEntries and blockBytes.
	blockEntries, blockBytes uint64
	cuts, scanCuts           []graph.Vertex
	// bitsets: a round gives its dense window lists bitsets (a ranked
	// store), in an arena sized once per run (arenaSized), to at least
	// arenaWords words. slots[b] is, once load block b is loaded, how many
	// words its bitsets take, then where they begin (0: not built).
	bitsets    bool
	arenaWords uint64
	arenaSized bool
	slots      []uint64
	// dead has a bit per vertex of a compressed store, set once a round of
	// this run rejected the vertex's list for ending below its window: vlow
	// never falls within a run, so no later round can use the list either.
	dead []atomic.Uint64

	// The round in progress: its window (filled by the load phase, read by
	// the scan phase), and the cursor blocks are dealt from. loads counts the
	// rounds of the run that loaded their window.
	win   window
	loads int
	next  atomic.Int64
	last  int64
	stop  atomic.Bool // a runner failed; deal no more
	wg    sync.WaitGroup
	// The round's scan runs the lists of [scanLow, scanHigh): the blocks
	// [scanFrom, scanTo), clipped to that range, of which the first is
	// numbered seq in the listing, the next one seq+1, and so on.
	scanLow, scanHigh graph.Vertex
	scanFrom, scanTo  int
	seq               int64
}

// Window is a window kept between runs (DealConfig.Held): the entries of one
// round of a store, once a run has loaded them, and where each vertex's
// entries sit. The zero Window holds nothing. A node that is dealt many cone
// runs against one window loads it once and serves every later run from it.
type Window struct {
	d      *graph.Disk
	w      window
	loaded bool
}

// Holds reports whether w holds the entries [r.Lo, r.Hi) of d.
func (w *Window) Holds(d *graph.Disk, r balance.Range) bool {
	return w.loaded && w.d == d && w.w.winLo == r.Lo && w.w.winHi == r.Hi
}

// Release lets go of the store w holds a window of; w then holds nothing,
// and keeps its buffers for the next load.
func (w *Window) Release() { w.d, w.loaded = nil, false }

// errCancelled ends the phase of a runner that saw the run's context done;
// the run itself reports ctx.Err().
var errCancelled = errors.New("mgt: run cancelled")

// phase is what a round's runners do between two barriers.
type phase int

const (
	phaseLoad  phase = iota // fill the window
	phaseBuild              // write its bitsets
	phaseScan               // run the cone blocks against it
)

// dealt is one runner of a cooperative run: its cone state — the copy of the
// round's window it probes, N+(u), the mark array — and what reading blocks
// takes: one descriptor for the whole run, one block's bytes and one list's
// entries.
type dealt struct {
	disk       *graph.Disk
	dl         *dealer
	counter    *ioacct.Counter
	adj        *graph.AdjFile
	raw        []byte
	vals       []graph.Vertex
	segScratch []graph.Vertex  // one compressed segment, decoded
	segs       []graph.Segment // one compressed list's segments, parsed
	stats      Stats
	sink       Sink

	// The window the cone routines probe — this round's, as the coordinator
	// bounded it — and nmp, the current cone vertex's N+(u).
	window
	nmp []graph.Vertex
	at  []int // beside nmp: where each of its vertices sits in N(u) (coneDense)

	// mark is the direct-addressed membership array of the current cone
	// vertex, one entry per vertex id of the store: mark[w] == epoch iff
	// w ∈ N(u). Bumping epoch empties it in O(1).
	mark  []uint32
	epoch uint32
	hits  [batchLen]graph.Vertex // one chunk's matches, between probing and emitting

	work    chan phase
	list    *ListPart // its end of cfg.Listing
	span    obs.SpanID
	blocks  int
	ioStart ioacct.Stats // its counter when the run started
	loadIO  ioacct.Stats // what its window loads read
	idle    time.Duration
	doneAt  time.Time
	// A failed phase: the vertex whose list failed it (when one did) and why.
	badU graph.Vertex
	err  error
}

// Dealt is the outcome of a cooperative run.
type Dealt struct {
	// Runners has one Stats per runner. Passes is the rounds that loaded
	// their window — all of them, but for a round served by a Held window
	// that already held it; Wall the time it was not waiting at a barrier;
	// IO what it read for the blocks it scanned.
	Runners []Stats
	// WindowIO is what loading the windows read: the runners load them
	// together, for each other, so it is no one's own.
	WindowIO ioacct.Stats
}

// RunDealt counts (or lists) the triangles whose pivot edges lie in spans —
// disjoint ascending ranges of d's adjacency entries — with cfg.Workers
// runners sharing one window. The listing it writes to cfg.Listing goes
// span by span, window by window, cone vertex by cone vertex: exactly what
// one runner with a window of Workers·MemEdges entries lists, whatever
// Workers is and however the dealing went. The listing numbers the blocks
// the rounds deal, round by round, block by block — on a ranked store a
// round deals only the blocks from its window's first on, and under
// cfg.Cone only the blocks of that range — and a runner tells the listing
// where each block it is dealt begins and ends. Runs of one window's
// consecutive cone ranges, listed one after the other, therefore list what
// the unrestricted run of that window does.
//
// ctx is checked between blocks; a cancelled run returns the bare ctx.Err()
// after every runner has stopped and closed its descriptor. A failed run
// returns the runners' stats so far.
func RunDealt(ctx context.Context, d *graph.Disk, spans []balance.Range, cfg DealConfig) (Dealt, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Dealt{}, err
	}
	dl, err := newDealer(d, cfg)
	if err != nil {
		return Dealt{}, err
	}
	defer dl.close()
	// More than one runner: they live for the whole run and meet the
	// coordinator — this goroutine, one round per window — at a barrier
	// after every phase. One runner runs its phases on this goroutine.
	if len(dl.runners) > 1 {
		var exited sync.WaitGroup
		for _, r := range dl.runners {
			r.work = make(chan phase)
			exited.Add(1)
			go func() {
				defer exited.Done()
				r.serve()
			}()
		}
		defer func() {
			for _, r := range dl.runners {
				close(r.work)
			}
			exited.Wait()
		}()
	}
	err = dl.run(ctx, spans)
	out := Dealt{Runners: make([]Stats, len(dl.runners))}
	for i, r := range dl.runners {
		out.Runners[i] = r.stats
		out.WindowIO = out.WindowIO.Add(r.loadIO)
	}
	return out, err
}

// newDealer validates cfg and builds the runners of a cooperative run over d,
// each with its descriptor open (close releases them), and cuts the cone
// blocks. Nothing in it depends on the spans: a Runner builds it once and
// runs many ranges on it.
func newDealer(d *graph.Disk, cfg DealConfig) (*dealer, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("mgt: %d runners, need ≥ 1", cfg.Workers)
	}
	if cfg.MemEdges < 1 {
		return nil, fmt.Errorf("mgt: memory budget %d edges, need ≥ 1", cfg.MemEdges)
	}
	if !d.Meta.Oriented {
		return nil, fmt.Errorf("mgt: store %q is not oriented", d.Base)
	}
	if cfg.Sinks != nil && len(cfg.Sinks) != cfg.Workers {
		return nil, fmt.Errorf("mgt: %d sinks for %d runners", len(cfg.Sinks), cfg.Workers)
	}
	if l := cfg.Listing; l != nil && (cfg.Sinks != nil || len(l.parts) != cfg.Workers) {
		return nil, fmt.Errorf("mgt: a listing of %d parts, with %d sinks, for %d runners", len(l.parts), len(cfg.Sinks), cfg.Workers)
	}
	if c := cfg.Cone; c.Lo > c.Hi || c.Hi > uint64(d.NumVertices()) {
		return nil, fmt.Errorf("mgt: cone vertices [%d,%d) out of order or out of bounds for %d vertices", c.Lo, c.Hi, d.NumVertices())
	}
	budget := uint64(cfg.Workers) * uint64(cfg.MemEdges)
	dl := &dealer{d: d, cfg: cfg, blockEntries: min(BlockEntries, budget), blockBytes: BlockEntries * graph.EntrySize}
	// Bitsets need lists that name only smaller ids.
	dl.bitsets = d.Meta.Ranked && !cfg.markOnly
	if cfg.blockEntries > 0 {
		dl.blockEntries = uint64(cfg.blockEntries)
		dl.blockBytes = dl.blockEntries * graph.EntrySize
	}
	for i := 0; i < cfg.Workers; i++ {
		r := &dealt{
			disk: d, dl: dl,
			counter: ioacct.NewCounter(0),
			// A block's bytes, and never less than lets a streamed list's
			// next segment be told from a damaged one.
			raw:  make([]byte, max(dl.blockBytes, 2*graph.MaxSegmentBytes)),
			vals: make([]graph.Vertex, dl.blockEntries),
			// N+(u) has at most one entry per vertex of the window and per
			// entry of N(u).
			nmp: make([]graph.Vertex, 0, min(uint64(d.Meta.MaxOutDegree), budget)),
			// Sized from the store this runner scans: a live graph's merged
			// view carries vertex ids its base store does not.
			mark: make([]uint32, d.NumVertices()),
		}
		if dl.bitsets {
			r.at = make([]int, cap(r.nmp))
		}
		if d.Format() == graph.FormatCompressed {
			r.segScratch = make([]graph.Vertex, 0, graph.SegmentEntries)
			r.segs = make([]graph.Segment, 0, dl.blockEntries/graph.SegmentEntries+2)
		}
		switch {
		case cfg.Sinks != nil:
			r.sink = cfg.Sinks[i]
		case cfg.Listing != nil:
			r.list = cfg.Listing.Part(i)
			r.sink = r.list
		}
		adj, err := d.OpenAdjFile(r.counter)
		if err != nil {
			dl.close()
			return nil, err
		}
		r.adj = adj
		dl.runners = append(dl.runners, r)
	}
	dl.cuts = cutBlocks(d, dl.blockEntries, dl.blockBytes)
	if d.Format() == graph.FormatCompressed {
		dl.dead = make([]atomic.Uint64, (d.NumVertices()+63)/64)
	}
	if dl.bitsets {
		dl.slots = make([]uint64, len(dl.cuts))
	}
	return dl, nil
}

// close releases the runners' descriptors.
func (dl *dealer) close() error {
	var err error
	for _, r := range dl.runners {
		if cerr := r.adj.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// run covers spans — disjoint ascending ranges of the store's entries — with
// windows, round by round. Afterwards each runner's stats are this run's;
// a run that failed leaves those so far.
func (dl *dealer) run(ctx context.Context, spans []balance.Range) error {
	d := dl.d
	var longest uint64
	for i, s := range spans {
		if s.Hi > d.Meta.AdjEntries || s.Lo > s.Hi || (i > 0 && s.Lo < spans[i-1].Hi) {
			return fmt.Errorf("mgt: span [%d,%d) out of order or out of bounds for %d entries", s.Lo, s.Hi, d.Meta.AdjEntries)
		}
		longest = max(longest, s.Len())
	}
	dl.loads, dl.seq = 0, 0
	dl.stop.Store(false)
	clear(dl.dead) // a Runner's next range may start below this one's windows
	dl.done = ctx.Done()
	for _, r := range dl.runners {
		r.stats, r.blocks, r.idle = Stats{}, 0, 0
		r.ioStart, r.loadIO = r.counter.Snapshot(), ioacct.Stats{}
	}
	if err := ctx.Err(); err != nil || longest == 0 {
		return err
	}
	// The window: P·M entries, or the longest span if that is less — a store
	// smaller than the budget costs its own size — and no more than ind's
	// 32-bit offsets can address. One allocation of edg and ind serves every
	// window of the run, and of the next run on the same dealer if it fits.
	// A run with a Held window loads into that one instead.
	winEntries := min(uint64(dl.cfg.Workers)*uint64(dl.cfg.MemEdges), longest, math.MaxUint32)
	if dl.cfg.Held == nil {
		indCap := 0
		for _, s := range spans {
			for lo := s.Lo; lo < s.Hi; lo += winEntries {
				indCap = max(indCap, int(d.VertexAt(min(lo+winEntries, s.Hi)-1)-d.VertexAt(lo))+1)
			}
		}
		if cap(dl.win.edg) < int(winEntries) {
			dl.win.edg = make([]graph.Vertex, 0, winEntries)
		}
		if cap(dl.win.ind) < indCap {
			dl.win.ind = make([]indEntry, 0, indCap)
		}
		if dl.bitsets && cap(dl.win.dense) < indCap {
			dl.win.dense = make([]uint32, 0, indCap)
		}
	}
	var rounds uint64
	for _, s := range spans {
		rounds += (s.Len() + winEntries - 1) / winEntries
	}
	// A listing's scan is cut at ListBlockEntries a round: the more rounds,
	// the smaller a block's share of the triangles in each.
	dl.scanCuts = dl.cuts
	if e := uint64(ListBlockEntries) * rounds; dl.cfg.Listing != nil && e < dl.blockEntries {
		dl.scanCuts = cutBlocks(d, e, e*graph.EntrySize)
	}
	dl.arenaWords, dl.arenaSized = 0, false
	switch {
	case dl.cfg.arenaWords > 0:
		dl.arenaWords = uint64(dl.cfg.arenaWords)
	case rounds > 1:
		dl.arenaWords = max(winEntries/arenaShare, minArenaWords)
	}

	// Runner i's chunk span carries worker index i — counted from the
	// cursor's own worker, so that one runner of the paper's layout keeps
	// the index of its range.
	cur := obs.CursorFrom(ctx)
	first := max(int(cur.Worker), 0)
	for i, r := range dl.runners {
		r.span = cur.WithWorker(first + i).Begin(obs.SpanChunk)
	}
	//pdtl:nondeterministic-ok wall-clock feeds Stats.Wall and span attrs only, never listing order
	start := time.Now()
	var err error
rounds:
	for _, s := range spans {
		for lo := s.Lo; lo < s.Hi; lo += winEntries {
			if err = dl.runRound(ctx, cur, lo, min(lo+winEntries, s.Hi)); err != nil {
				break rounds
			}
		}
	}
	wall := time.Since(start) //pdtl:nondeterministic-ok timing stat only
	for _, r := range dl.runners {
		r.stats.Passes = dl.loads
		r.stats.Wall = max(wall-r.idle, 0)
		r.stats.IO = r.counter.Snapshot().Sub(r.ioStart).Sub(r.loadIO)
		cur.SetAttr(r.span, "cmp_ops", int64(r.stats.CmpOps))
		cur.SetAttr(r.span, "io_bytes", r.stats.IO.BytesRead)
		cur.SetAttr(r.span, "passes", int64(r.stats.Passes))
		cur.SetAttr(r.span, "blocks", int64(r.blocks))
		cur.SetAttr(r.span, "idle_ns", int64(r.idle))
		cur.End(r.span)
	}
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// ConeBlocks cuts the vertex ids of d into the cone blocks a run whose
// window is window entries (P·M) deals: block b is the vertices
// [cuts[b], cuts[b+1]). RunDealt cuts them so, and so does a cluster master
// cutting a window's scan into stealing units (DealConfig.Cone).
func ConeBlocks(d *graph.Disk, window uint64) []graph.Vertex {
	return cutBlocks(d, min(BlockEntries, window), BlockEntries*graph.EntrySize)
}

// ConeRun is a run of whole cone blocks of one window's scan: the piece of
// work a stealing cluster hands out (ConeRuns), run as one RunDealt over
// the span Window with DealConfig.Cone = Cone.
type ConeRun struct {
	Window balance.Range // the window's entries
	Index  int           // the window's index
	Cone   balance.Range // the cone vertices [Lo, Hi), whole blocks
	Blocks int           // how many cone blocks the run has
}

// ConeRuns cuts the scan of every window of d — ⌈|E*|/win⌉ windows of win
// entries — into about k runs of whole cone blocks (ConeBlocks at pm = P·M,
// the blocks a run of P runners of M entries deals), in listing order:
// window by window, and within a window the blocks its round deals — from
// the window's first vertex on a ranked store, whose lists name only
// smaller ids, from vertex 0 on any other. A run closes once its lists reach
// 1/k of all the windows' scans, so at one window it is about |E*|/k
// entries; every window has at least one. Listed one after the other, the
// runs of a window list what its unrestricted round does.
func ConeRuns(d *graph.Disk, win, pm uint64, k int) []ConeRun {
	total, n := d.Meta.AdjEntries, graph.Vertex(d.NumVertices())
	cuts := ConeBlocks(d, pm)
	first := func(lo uint64) graph.Vertex {
		if d.Meta.Ranked {
			return d.VertexAt(lo)
		}
		return 0
	}
	var scanned uint64
	for lo := uint64(0); lo < total; lo += win {
		scanned += total - d.Offsets[first(lo)]
	}
	target := max(scanned/uint64(max(k, 1)), 1)
	var runs []ConeRun
	for w, lo := 0, uint64(0); lo < total; w, lo = w+1, lo+win {
		a := first(lo)
		b := sort.Search(len(cuts)-1, func(b int) bool { return cuts[b+1] > a })
		for a < n {
			r := ConeRun{Window: balance.Range{Lo: lo, Hi: min(lo+win, total)}, Index: w}
			z := a
			for z < n && (z == a || d.Offsets[z]-d.Offsets[a] < target) {
				b, z = b+1, cuts[b+1]
				r.Blocks++
			}
			r.Cone = balance.Range{Lo: uint64(a), Hi: uint64(z)}
			runs = append(runs, r)
			a = z
		}
	}
	return runs
}

// cutBlocks cuts the vertex ids into cone blocks: maximal runs of vertices
// whose lists together are at most entries entries and bytes bytes of the
// store, so a block's bytes and any one of its lists fit a runner's
// buffers. A list over either bound is a block by itself and is streamed
// through the buffers in pieces.
func cutBlocks(d *graph.Disk, maxEntries, maxBytes uint64) []graph.Vertex {
	cuts := make([]graph.Vertex, 1, d.Meta.AdjEntries/maxEntries*2+2)
	var entries, bytes uint64
	for v, deg := range d.Degrees {
		e, b := uint64(deg), uint64(deg)*graph.EntrySize
		if d.ByteOffs != nil {
			b = d.ByteOffs[v+1] - d.ByteOffs[v]
		}
		if graph.Vertex(v) > cuts[len(cuts)-1] && (entries+e > maxEntries || bytes+b > maxBytes) {
			cuts = append(cuts, graph.Vertex(v))
			entries, bytes = 0, 0
		}
		entries, bytes = entries+e, bytes+b
	}
	return append(cuts, graph.Vertex(d.NumVertices()))
}

// blockOf returns the block of cuts holding vertex v.
func blockOf(cuts []graph.Vertex, v graph.Vertex) int {
	return sort.Search(len(cuts)-1, func(b int) bool { return cuts[b+1] > v })
}

// runRound loads the window [lo, hi) — unless the Held window holds it —
// and scans against it every cone block that can reach it.
func (dl *dealer) runRound(ctx context.Context, cur obs.Cursor, lo, hi uint64) error {
	// The per-round cancellation point; the runners look between blocks.
	if err := ctx.Err(); err != nil {
		return err
	}
	span := cur.Begin(obs.SpanScanRound)
	var ioBefore int64
	for _, r := range dl.runners {
		ioBefore += r.counter.Snapshot().BytesRead
	}
	held := dl.cfg.Held
	resident := held != nil && held.Holds(dl.d, balance.Range{Lo: lo, Hi: hi})
	switch {
	case resident:
		dl.win = held.w
	case held != nil:
		dl.win, held.loaded = held.w, false // its buffers, about to be overwritten
		fallthrough
	default:
		dl.win.bound(dl.d, lo, hi, dl.bitsets)
	}
	// Load: the blocks holding the window's vertices, each filling its own
	// stretch of edg and ind. Scan: on a ranked store, whose lists name only
	// smaller ids, the lists from vlow on — none below it can reach the
	// window; on any other, every list; under cfg.Cone, only its lists.
	dl.scanLow, dl.scanHigh = 0, graph.Vertex(dl.d.NumVertices())
	if dl.d.Meta.Ranked {
		dl.scanLow = dl.win.vlow
	}
	if c := dl.cfg.Cone; c.Lo < c.Hi {
		dl.scanLow, dl.scanHigh = max(dl.scanLow, graph.Vertex(c.Lo)), min(dl.scanHigh, graph.Vertex(c.Hi))
	}
	dl.scanFrom = blockOf(dl.scanCuts, dl.scanLow)
	dl.scanTo = dl.scanFrom
	if dl.scanLow < dl.scanHigh {
		dl.scanTo = blockOf(dl.scanCuts, dl.scanHigh-1) + 1
	}
	var err error
	if !resident {
		err = dl.load()
		dl.loads++
		if held != nil {
			held.d, held.w, held.loaded = dl.d, dl.win, err == nil
		}
	}
	if err == nil {
		err = dl.deal(phaseScan, dl.scanFrom, dl.scanTo)
	}
	blocks := dl.scanTo - dl.scanFrom
	dl.seq += int64(blocks)
	var ioAfter int64
	for _, r := range dl.runners {
		ioAfter += r.counter.Snapshot().BytesRead
	}
	cur.SetAttr(span, "window_lo", int64(lo))
	cur.SetAttr(span, "window_hi", int64(hi))
	cur.SetAttr(span, "blocks", int64(blocks))
	cur.SetAttr(span, "io_bytes", ioAfter-ioBefore)
	cur.End(span)
	return err
}

// load fills the bounded window: the blocks holding its vertices, each
// reading its own stretch of edg and ind and measuring its vertices'
// bitsets; then, in a round with bitsets, each block's bitsets are written
// into the window's arena at a slot laid out block by block, so which
// runner loaded what changes nothing.
//
// The arena is sized once per run, by the first round that builds
// bitsets, to hold that round's or arenaWords, whichever is more — a run of
// one round, the whole store in memory, gets exactly what it needs. A later
// round whose bitsets do not all fit builds those of its first blocks that
// do, and the rest of its vertices keep the mark path.
func (dl *dealer) load() error {
	first, last := blockOf(dl.cuts, dl.win.vlow), blockOf(dl.cuts, dl.win.vhigh)+1
	if err := dl.deal(phaseLoad, first, last); err != nil || len(dl.win.dense) == 0 {
		return err
	}
	// Word 0 is no slot (dense is 0 for no bitset); a round's bitsets take
	// at most half a word per window entry, so the slots fit dense's 32 bits.
	need := uint64(1)
	for b := first; b < last; b++ {
		need += dl.slots[b]
	}
	if need == 1 {
		dl.win.dense = dl.win.dense[:0] // no dense list: the mark path, without looking
		return nil
	}
	if size := max(need, dl.arenaWords); !dl.arenaSized && uint64(cap(dl.win.bits)) < size {
		dl.win.bits = make([]uint64, size)
	}
	dl.arenaSized = true
	dl.win.bits = dl.win.bits[:cap(dl.win.bits)]
	at := uint64(1)
	for b := first; b < last; b++ {
		if n := dl.slots[b]; at+n <= uint64(len(dl.win.bits)) {
			dl.slots[b], at = at, at+n
		} else {
			dl.slots[b] = 0 // does not fit: no bitsets
		}
	}
	return dl.deal(phaseBuild, first, last)
}

// deal hands the blocks [first, last) to the runners for one phase and waits
// for all of them; the time a runner spent waiting for the slowest is its
// idle time. One runner runs the phase on the caller's goroutine.
func (dl *dealer) deal(ph phase, first, last int) error {
	dl.next.Store(int64(first))
	dl.last = int64(last)
	if len(dl.runners) == 1 {
		dl.runners[0].runPhase(ph)
	} else {
		dl.wg.Add(len(dl.runners))
		for _, r := range dl.runners {
			r.work <- ph
		}
		dl.wg.Wait()
	}
	//pdtl:nondeterministic-ok wall-clock feeds the idle_ns span attr and Stats.Wall only
	end := time.Now()
	var err error
	for _, r := range dl.runners {
		r.idle += end.Sub(r.doneAt)
		if err == nil && r.err != nil {
			err = r.failure(ph)
		}
	}
	return err
}

// failure words the error that ended r's phase.
func (r *dealt) failure(ph phase) error {
	switch {
	case r.err == errCancelled:
		return r.err
	case r.err == errBadVertexID:
		return r.errVertexID(r.badU)
	case r.list != nil && r.err == r.list.err:
		return fmt.Errorf("mgt: write listing: %w", r.err)
	case ph == phaseLoad:
		return fmt.Errorf("mgt: load window: vertex %d: %w", r.badU, r.err)
	}
	return fmt.Errorf("mgt: list of vertex %d: %w", r.badU, r.err)
}

// serve is a runner's goroutine: one phase per message, until the channel
// closes.
func (r *dealt) serve() {
	for ph := range r.work {
		r.runPhase(ph)
		r.dl.wg.Done()
	}
}

// runPhase runs one phase of the round.
func (r *dealt) runPhase(ph phase) {
	r.window = r.dl.win // this round's, as the coordinator bounded it
	switch ph {
	case phaseLoad:
		before := r.counter.Snapshot()
		r.badU, r.err = r.loadBlocks()
		r.loadIO = r.loadIO.Add(r.counter.Snapshot().Sub(before))
	case phaseBuild:
		r.badU, r.err = 0, r.buildBlocks()
	default:
		r.badU, r.err = r.scanBlocks()
	}
	if r.err != nil {
		r.dl.stop.Store(true)
		if l := r.dl.cfg.Listing; l != nil {
			l.Stop() // a runner waiting for the head this runner held wakes
		}
	}
	r.doneAt = time.Now() //pdtl:nondeterministic-ok feeds idle time only
}

// take claims the next block of the phase; ok is false when there is none
// left, a runner has failed, or the run is cancelled (err says so).
//
//pdtl:hotpath
func (r *dealt) take() (b int, ok bool, err error) {
	dl := r.dl
	select {
	case <-dl.done:
		return 0, false, errCancelled
	default:
	}
	if dl.stop.Load() {
		return 0, false, nil
	}
	if dl.cfg.afterBlock != nil {
		dl.cfg.afterBlock()
	}
	n := dl.next.Add(1) - 1
	return int(n), n < dl.last, nil
}

// loadBlocks is the load phase of one runner: every block it takes, it reads
// the part inside the window into edg, indexes it in ind and, in a round
// with bitsets, measures them. Blocks cover disjoint vertices, so the
// runners write disjoint stretches of all three.
func (r *dealt) loadBlocks() (graph.Vertex, error) {
	d := r.disk
	for {
		b, ok, err := r.take()
		if !ok {
			return 0, err
		}
		a, z := max(r.dl.cuts[b], r.vlow), min(r.dl.cuts[b+1], r.vhigh+1)
		lo, hi := max(d.Offsets[a], r.winLo), min(d.Offsets[z], r.winHi)
		bad := a
		switch {
		case d.ByteOffs == nil:
			err = r.loadPlain(lo, hi)
		case d.ByteOffs[z]-d.ByteOffs[a] > r.dl.blockBytes:
			err = r.loadStreamed(a) // a list by itself
		default:
			bad, err = r.loadEncoded(a, z)
		}
		if err != nil {
			return bad, err
		}
		r.index(d, a, z)
		if len(r.dense) > 0 {
			r.dl.slots[b] = r.measure(a, z)
		}
		r.stats.EdgesLoaded += hi - lo
	}
}

// buildBlocks is the build phase of one runner: every block it takes, it
// writes the bitsets of the block's vertices at the block's slot of the
// arena.
func (r *dealt) buildBlocks() error {
	for {
		b, ok, err := r.take()
		if !ok {
			return err
		}
		r.build(max(r.dl.cuts[b], r.vlow), min(r.dl.cuts[b+1], r.vhigh+1), r.dl.slots[b])
	}
}

// loadPlain reads the entries [lo, hi) of a plain store into the window.
func (r *dealt) loadPlain(lo, hi uint64) error {
	step := r.dl.blockEntries
	for pos := lo; pos < hi; pos += step {
		dst := r.edg[pos-r.winLo : min(pos+step, hi)-r.winLo]
		raw := r.raw[:len(dst)*graph.EntrySize]
		if err := r.adj.ReadAt(raw, int64(pos)*graph.EntrySize); err != nil {
			return err
		}
		graph.DecodePlain(dst, raw)
	}
	return nil
}

// loadEncoded reads the lists of vertices [a, z) of a compressed store — at
// most a block's bytes — and decodes what the window holds of each into its
// place in edg. On an error it names the vertex.
func (r *dealt) loadEncoded(a, z graph.Vertex) (graph.Vertex, error) {
	d := r.disk
	base := d.ByteOffs[a]
	raw := r.raw[:d.ByteOffs[z]-base]
	if err := r.adj.ReadAt(raw, int64(base)); err != nil {
		return a, err
	}
	for v := a; v < z; v++ {
		lo, hi := max(d.Offsets[v], r.winLo), min(d.Offsets[v+1], r.winHi)
		cl := graph.CompressedList{Degree: int(d.Degrees[v]), Data: raw[d.ByteOffs[v]-base : d.ByteOffs[v+1]-base]}
		// The three-index slice keeps a damaged list from spilling into its
		// neighbour's entries.
		dst := r.edg[lo-r.winLo : lo-r.winLo : hi-r.winLo]
		out, err := graph.DecodeEntryRange(cl, int(lo-d.Offsets[v]), int(hi-d.Offsets[v]), r.segScratch[:0], dst)
		if err != nil {
			return v, err
		}
		if len(out) != cap(dst) {
			return v, io.ErrUnexpectedEOF
		}
	}
	return a, nil
}

// loadStreamed is loadEncoded for a list longer than the block buffer.
func (r *dealt) loadStreamed(u graph.Vertex) error {
	d := r.disk
	lo, hi := max(d.Offsets[u], r.winLo)-d.Offsets[u], min(d.Offsets[u+1], r.winHi)-d.Offsets[u]
	dst := r.edg[d.Offsets[u]+lo-r.winLo:][:0]
	st := r.stream(u)
	for pos := uint64(0); ; {
		seg, ok, err := st.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		end := pos + uint64(seg.Count)
		if end > lo && pos < hi {
			vals, err := r.decodeSegmentFast(seg)
			if err != nil {
				return err
			}
			dst = append(dst, vals[max(lo, pos)-pos:min(hi, end)-pos]...)
		}
		pos = end
	}
	if uint64(len(dst)) != hi-lo {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// scanBlocks is the scan phase of one runner — the blocks loop: every block
// it takes, it runs the cone vertices of against the window, and, listing in
// order, tells the listing where the block begins and ends.
//
//pdtl:hotpath
func (r *dealt) scanBlocks() (graph.Vertex, error) {
	for {
		b, ok, err := r.take()
		if !ok {
			return 0, err
		}
		if r.list != nil {
			r.list.Begin(r.dl.seq + int64(b-r.dl.scanFrom))
		}
		if u, err := r.scanBlock(max(r.dl.scanCuts[b], r.dl.scanLow), min(r.dl.scanCuts[b+1], r.dl.scanHigh)); err != nil {
			return u, err
		}
		r.blocks++
		if r.list != nil {
			if err := r.list.End(); err != nil {
				return 0, err
			}
		}
	}
}

// scanBlock runs the cone vertices [a, z) against the window. Those whose
// lists the window holds whole are served from it, with no read at all — a
// run of one window reads the store once — and only the rest of the block
// is read. On an error it names the vertex.
//
//pdtl:hotpath
func (r *dealt) scanBlock(a, z graph.Vertex) (graph.Vertex, error) {
	ra, rz := min(max(r.resLo, a), z), min(max(r.resHi, a), z)
	if ra >= rz {
		return r.scanStored(a, z)
	}
	if u, err := r.scanStored(a, ra); err != nil {
		return u, err
	}
	if u, err := r.scanResident(ra, rz); err != nil {
		return u, err
	}
	return r.scanStored(rz, z)
}

// scanStored reads the lists of [a, z) — a block or a part of one — from the
// store and runs them against the window.
//
//pdtl:hotpath
func (r *dealt) scanStored(a, z graph.Vertex) (graph.Vertex, error) {
	d := r.disk
	lo, hi := d.Offsets[a], d.Offsets[z]
	bytes := (hi - lo) * graph.EntrySize
	if d.ByteOffs != nil {
		bytes = d.ByteOffs[z] - d.ByteOffs[a]
	}
	switch {
	case lo == hi:
		return a, nil
	case hi-lo > r.dl.blockEntries || bytes > r.dl.blockBytes:
		return a, r.scanStreamed(a) // a list by itself
	case d.ByteOffs == nil:
		return r.scanPlain(a, z)
	}
	return r.scanEncoded(a, z)
}

// scanResident serves the lists of [a, z) from the window.
//
//pdtl:hotpath
func (r *dealt) scanResident(a, z graph.Vertex) (graph.Vertex, error) {
	d := r.disk
	for u := a; u < z; u++ {
		nm := r.edg[d.Offsets[u]-r.winLo : d.Offsets[u+1]-r.winLo]
		// Fewer than a pivot source and a closing vertex, or no vertex of
		// the window: nothing to do.
		if len(nm) < 2 || nm[len(nm)-1] < r.vlow || nm[0] > r.vhigh {
			continue
		}
		if !r.cone(u, nm) {
			return u, errBadVertexID
		}
	}
	return a, nil
}

// scanPlain reads the block's bytes of a plain store and decodes only the
// lists whose ends say they can reach the window.
//
//pdtl:hotpath
func (r *dealt) scanPlain(a, z graph.Vertex) (graph.Vertex, error) {
	d := r.disk
	raw := r.raw[:(d.Offsets[z]-d.Offsets[a])*graph.EntrySize]
	if err := r.adj.ReadAt(raw, int64(d.Offsets[a])*graph.EntrySize); err != nil {
		return a, err
	}
	for u := a; u < z; u++ {
		deg := int(d.Degrees[u])
		list := raw[:deg*graph.EntrySize]
		raw = raw[len(list):]
		if deg < 2 || binary.LittleEndian.Uint32(list[len(list)-graph.EntrySize:]) < r.vlow || binary.LittleEndian.Uint32(list) > r.vhigh {
			continue
		}
		nm := r.vals[:deg]
		graph.DecodePlain(nm, list)
		if !r.cone(u, nm) {
			return u, errBadVertexID
		}
	}
	return a, nil
}

// scanEncoded reads the block's bytes of a compressed store and walks the
// lists as views of them: one walk parses and validates every segment header
// of a list, no payload touched, the quick reject runs on its ends, and only
// the survivors are decoded, from the same segments — the header-pruned
// pass, with no copy of the list first. A list rejected for ending below the
// window is marked dead, and later rounds of the run skip it unread.
//
//pdtl:hotpath
func (r *dealt) scanEncoded(a, z graph.Vertex) (graph.Vertex, error) {
	d := r.disk
	base := d.ByteOffs[a]
	raw := r.raw[:d.ByteOffs[z]-base]
	if err := r.adj.ReadAt(raw, int64(base)); err != nil {
		return a, err
	}
	for u := a; u < z; u++ {
		deg := int(d.Degrees[u])
		if deg < 2 {
			continue
		}
		// Blocks split words at any vertex, so two runners may share one.
		word, bit := &r.dl.dead[u/64], uint64(1)<<(u%64)
		if word.Load()&bit != 0 {
			r.stats.SegmentsSkipped += uint64((deg + graph.SegmentEntries - 1) / graph.SegmentEntries)
			continue
		}
		cl := graph.CompressedList{Degree: deg, Data: raw[d.ByteOffs[u]-base : d.ByteOffs[u+1]-base]}
		segs, err := cl.AppendSegments(r.segs[:0])
		if err != nil {
			return u, err
		}
		if last := segs[len(segs)-1].Last; last < r.vlow || segs[0].First > r.vhigh {
			if last < r.vlow {
				word.Or(bit)
			}
			r.stats.SegmentsSkipped += uint64(len(segs))
			continue
		}
		nm := r.vals[:0]
		for _, s := range segs {
			if nm, err = graph.DecodeSegment(s, nm); err != nil {
				return u, err
			}
		}
		if !r.cone(u, nm) {
			return u, errBadVertexID
		}
	}
	return a, nil
}

// scanStreamed is the large-vertex routine, for a list longer than a block
// (and so for one longer than the window): its pieces are stamped and
// window-filtered as they arrive, then one probe closes the triangles. All
// that outlives a piece is mark (n entries) and nmp (at most one entry per
// window vertex): one read of N(u), no second pass.
//
//pdtl:hotpath
func (r *dealt) scanStreamed(u graph.Vertex) error {
	d := r.disk
	r.stats.LargeVertices++
	r.bumpEpoch()
	nmp := r.nmp[:0]
	if d.ByteOffs == nil {
		for pos, end := d.Offsets[u], d.Offsets[u+1]; pos < end; pos += r.dl.blockEntries {
			vals := r.vals[:min(r.dl.blockEntries, end-pos)]
			raw := r.raw[:len(vals)*graph.EntrySize]
			if err := r.adj.ReadAt(raw, int64(pos)*graph.EntrySize); err != nil {
				return err
			}
			graph.DecodePlain(vals, raw)
			if !r.stamp(vals) {
				return errBadVertexID
			}
			nmp = r.inWindow(nmp, vals)
		}
	} else {
		st := r.stream(u)
		for {
			seg, ok, err := st.next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			vals, err := r.decodeSegmentFast(seg)
			if err != nil {
				return err
			}
			if !r.stamp(vals) {
				return errBadVertexID
			}
			nmp = r.inWindow(nmp, vals)
		}
	}
	r.probe(u, nmp)
	return nil
}

// listStream walks the segments of one compressed list through the block
// buffer, topping it up whenever what is left unparsed might not hold a
// whole segment (graph.MaxSegmentBytes).
type listStream struct {
	adj      *graph.AdjFile
	buf      []byte
	off, end int64 // the list bytes not read yet
	it       graph.SegIter
}

func (r *dealt) stream(u graph.Vertex) listStream {
	d := r.disk
	return listStream{
		adj: r.adj, buf: r.raw,
		off: int64(d.ByteOffs[u]), end: int64(d.ByteOffs[u+1]),
		it: graph.CompressedList{Degree: int(d.Degrees[u])}.Segments(),
	}
}

// next returns the list's next segment; ok is false at its end.
//
//pdtl:hotpath
func (s *listStream) next() (seg graph.Segment, ok bool, err error) {
	if s.off < s.end && len(s.it.Rest()) < graph.MaxSegmentBytes {
		n := copy(s.buf, s.it.Rest())
		k := min(int(s.end-s.off), len(s.buf)-n)
		if err := s.adj.ReadAt(s.buf[n:n+k], s.off); err != nil {
			return seg, false, err
		}
		s.off += int64(k)
		s.it.Feed(s.buf[:n+k])
	}
	seg, ok = s.it.Next()
	return seg, ok, s.it.Err()
}
