// Package mgt implements the modified Massive Graph Triangulation algorithm
// of Section IV-A (Algorithm 2 of the paper).
//
// MGT finds all triangles of an oriented graph G* held on disk by loading
// consecutive out-edges into memory and, for every vertex u of the graph,
// intersecting u's out-list with the in-memory out-lists of u's
// out-neighbors. The paper's modification — kept here — is that all
// per-vertex structures are *sorted arrays*, never hash sets (their
// set-based implementation was more than 10× slower):
//
//	edg — the in-memory edge chunk: a copy of a contiguous slice of the
//	      adjacency file (the runner's current window of pivot edges);
//	ind — for each vertex v in [vlow, vhigh], the offset and length of the
//	      in-memory portion Ev of v's out-list inside edg;
//	nm  — N(u), the out-list of the current cone candidate u, read from a
//	      sequential scan of the whole adjacency file;
//	nmp — N+(u) = N(u) ∩ V+mem, computed by probing ind.
//
// Algorithm 2 then merges nm against Ev once per v ∈ nmp, re-walking N(u)
// |N+(u)| times. The runner's own cone routine (KernelAuto, the default)
// walks it once instead: it stamps every w ∈ nm with a fresh epoch in mark,
// a direct-addressed array over the vertex ids, and probes every in-window
// Ev against it — d(u) + Σ|Ev| steps per cone vertex instead of
// Σ(d(u) + |Ev|), same triangles in the same order. mark is no hash set:
// one load per probe, no hashing, no collisions, nothing to clear between
// cone vertices (DESIGN.md §5). KernelMerge keeps the paper's pairwise
// merges as the ablation.
//
// A runner is additionally restricted to a contiguous *global* edge range
// [Lo, Hi): its pivot responsibility in PDTL (Section IV-B). Every triangle
// is reported exactly once across runners, by the runner (and pass) whose
// window holds the triangle's pivot edge. With the full range this is
// exactly the paper's single-core MGT, the baseline of Figure 11.
//
// There are two ways to run it. RunDealt (coop.go) is the engine's default:
// the P runners of a node share one window of P·M entries and are dealt the
// cone blocks of every round, reading the blocks they take themselves. A
// Runner by itself (NewRunner, RunRange) is the paper's layout — one runner
// per range, each with a private M-entry window — and opens no file: window
// loads and sequential scan passes go through a scan.Handle supplied by
// Config (see internal/scan and DESIGN.md §5), so the engine decides whether
// those runners each scan the file privately, share one broadcast scan, or
// run fully in memory. The cone routines are the same code under both.
package mgt

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/obs"
	"pdtl/internal/scan"
)

// Sink consumes listed triangles (u, v, w), each with u ≺ v ≺ w in the
// degree-based order. Implementations are called from a single goroutine
// per runner.
type Sink interface {
	Triangle(u, v, w graph.Vertex)
}

// KernelKind names a cone routine, as used by CLI flags, the cluster wire
// format, and the Options of every layer.
type KernelKind string

const (
	// KernelAuto, the zero value, is the runner's own mark-and-probe cone
	// routine (see the package comment). It stays the empty string on the
	// wire and in Options, so every layer passes it through untouched and a
	// peer that predates the routine still answers; flags and reports spell
	// it "auto".
	KernelAuto KernelKind = ""
	// KernelMerge is the paper's two-pointer merge of N(u) with every
	// in-window Ev (Section IV-A: sorted arrays, never hash sets) — the
	// ablation every reproduction number is measured against.
	KernelMerge KernelKind = "merge"
)

// ParseKernel validates a kernel name from a flag, query or wire message.
// The empty string and "auto" both mean KernelAuto.
func ParseKernel(s string) (KernelKind, error) {
	switch KernelKind(s) {
	case KernelAuto, "auto":
		return KernelAuto, nil
	case KernelMerge:
		return KernelMerge, nil
	}
	return "", fmt.Errorf("mgt: unknown kernel %q (want auto, merge)", s)
}

// String is the name reports print: "auto" for KernelAuto.
func (k KernelKind) String() string {
	if k == KernelAuto {
		return "auto"
	}
	return string(k)
}

// Config parameterizes a runner.
type Config struct {
	// MemEdges is M, the number of adjacency entries the runner may hold
	// in its edg window at once. It drives the pass count R = ceil(S/M)
	// (Section IV-B2). Must be ≥ 1.
	MemEdges int
	// Counter receives the runner's I/O accounting; nil allocates a
	// private one.
	Counter *ioacct.Counter
	// BufBytes is the size of the sequential-scan read buffer;
	// non-positive selects 1 MiB. Only consulted when Source is nil.
	BufBytes int
	// Source is the runner's access to the adjacency data. The runner
	// never opens the adjacency file itself: window loads and scan passes
	// go through this handle, so the engine decides the I/O strategy
	// (per-runner buffered scans, or one shared broadcast scan). Nil selects a private scan.SourceBuffered handle charged
	// to Counter — the paper's configuration, and bitwise-identical to the
	// pre-refactor behavior.
	Source scan.Handle
	// Kernel is the cone routine: KernelAuto, the default, the runner's own
	// mark-and-probe; KernelMerge, one two-pointer merge per (nm, Ev) pair.
	// NewRunner is the one place the kind gets its meaning. Both produce
	// identical triangles in identical order.
	Kernel KernelKind
}

// Stats reports what a runner did — the per-processor raw material of the
// paper's Figures 6–8 and Tables IV and VII.
type Stats struct {
	// Triangles found in the runner's range.
	Triangles uint64
	// Passes is R, the number of memory-window iterations over the graph.
	Passes int
	// EdgesLoaded is the total number of adjacency entries loaded into the
	// window across passes (= the range size).
	EdgesLoaded uint64
	// Intersections is the number of (nm, Ev) pairs intersected — |nmp|
	// summed over all cone vertices of all passes, whichever routine
	// intersects them.
	Intersections uint64
	// CmpOps counts the steps inside the intersections — a
	// machine-independent proxy for the CPU work of Theorem IV.2's
	// O(|E|²/M + α|E|) term, used by the harness to report scaling
	// independently of the host's core count. Under KernelMerge it is one
	// step per merge iteration; on the default path (and for a large vertex
	// under either kernel) it is stamps written plus probes made,
	// d(u) + Σ|Ev| per cone vertex. Both are exact and repeat from run to
	// run.
	CmpOps uint64
	// LargeVertices counts cone vertices whose out-list exceeded M and
	// arrived in segments (the removal of the small-degree assumption,
	// footnote 1 of the paper). They cost no extra I/O.
	LargeVertices uint64
	// SegmentsSkipped counts compressed segments rejected on their
	// (first, last) headers alone — never decoded — by the header-pruned
	// pass, a whole out-of-window list at a time. Zero on plain stores; the
	// skip-effectiveness metric of the bench schema.
	SegmentsSkipped uint64
	// WordOps counts the 8-wide blocks the unrolled varint decoder consumed
	// (graph.DecodeSegmentFast). The vectorization metric of the bench
	// schema; zero on plain stores.
	WordOps uint64
	// FastDecodes counts compressed segments decoded through
	// graph.DecodeSegmentFast instead of the scalar decoder.
	FastDecodes uint64
	// Wall is the runner's wall-clock time.
	Wall time.Duration
	// IO is the runner's I/O activity; Wall − IO.IOTime() is the "CPU
	// time" of the paper's breakdowns.
	IO ioacct.Stats
}

// CPUTime is wall time minus time spent inside I/O calls.
func (s Stats) CPUTime() time.Duration {
	cpu := s.Wall - s.IO.IOTime()
	if cpu < 0 {
		return 0
	}
	return cpu
}

// Add merges two runner stats (Wall becomes the max — the straggler defines
// elapsed time; everything else sums).
func (s Stats) Add(o Stats) Stats {
	s.Triangles += o.Triangles
	s.Passes += o.Passes
	s.EdgesLoaded += o.EdgesLoaded
	s.Intersections += o.Intersections
	s.CmpOps += o.CmpOps
	s.LargeVertices += o.LargeVertices
	s.SegmentsSkipped += o.SegmentsSkipped
	s.WordOps += o.WordOps
	s.FastDecodes += o.FastDecodes
	if o.Wall > s.Wall {
		s.Wall = o.Wall
	}
	s.IO = s.IO.Add(o.IO)
	return s
}

// indEntry locates the in-memory portion Ev of one vertex's out-list.
type indEntry struct {
	off uint32 // offset into edg
	len uint32 // number of in-memory out-edges of the vertex
}

// window is Algorithm 2's edg/ind pair with its bounds: the adjacency
// entries [winLo, winHi) and, for every vertex of [vlow, vhigh], where its
// in-memory out-edges sit. The cone routines only read it, so one window
// serves a single runner (the named sources: each runner loads its own) or
// every runner of a cooperative round (coop.go: loaded once, shared).
type window struct {
	edg          []graph.Vertex
	ind          []indEntry
	vlow, vhigh  graph.Vertex
	winLo, winHi uint64
	// The vertices [resLo, resHi) have their whole lists in the window.
	resLo, resHi graph.Vertex
}

// bound sets the window to the entries [lo, hi) of d, sizing edg and ind to
// it — never to the budget: a store smaller than M costs its own size. The
// contents of both are the caller's to fill.
func (w *window) bound(d *graph.Disk, lo, hi uint64) {
	w.winLo, w.winHi = lo, hi
	w.vlow, w.vhigh = d.VertexAt(lo), d.VertexAt(hi-1)
	w.resLo, w.resHi = w.vlow, w.vhigh+1
	if d.Offsets[w.resLo] < lo {
		w.resLo++
	}
	if d.Offsets[w.resHi] > hi {
		w.resHi = max(w.resHi-1, w.resLo)
	}
	if n := int(hi - lo); cap(w.edg) < n {
		w.edg = make([]graph.Vertex, n)
	} else {
		w.edg = w.edg[:n]
	}
	if n := int(w.vhigh-w.vlow) + 1; cap(w.ind) < n {
		w.ind = make([]indEntry, n)
	} else {
		w.ind = w.ind[:n]
	}
}

// index records in ind where the window's entries of vertices [a, z) sit.
func (w *window) index(d *graph.Disk, a, z graph.Vertex) {
	for v := a; v < z; v++ {
		lo, hi := max(d.Offsets[v], w.winLo), min(d.Offsets[v+1], w.winHi)
		e := indEntry{}
		if hi > lo {
			e = indEntry{off: uint32(lo - w.winLo), len: uint32(hi - lo)}
		}
		w.ind[v-w.vlow] = e
	}
}

// Runner is a reusable modified-MGT executor over one oriented store. It
// owns its window (edg and ind, grown to the largest window it has loaded,
// at most M entries), the N+(u) buffer (nmp) and the mark array — O(M + n)
// entries — and reuses them across RunRange calls: a cluster node executes
// many chunks back to back, and per-chunk reallocation of these buffers
// would dominate small chunks. A Runner is not safe for concurrent use.
type Runner struct {
	disk       *graph.Disk
	cfg        Config
	handle     scan.Handle
	merge      bool           // Config.Kernel is KernelMerge: one merge per (nm, Ev) pair
	segScratch []graph.Vertex // segment decode scratch of the compressed passes
	listBuf    []graph.Vertex // whole-list decode buffer of the header-pruned pass
	counter    *ioacct.Counter
	// ownedSrc is the private buffered source a Runner opens for itself when
	// cfg.Source is nil; Close tears it (and its handle) down.
	ownedSrc scan.Source
	stats    Stats
	sink     Sink

	// The window the cone routines probe — the runner's own, or a copy of
	// the round's shared one — and nmp, the current cone vertex's N+(u).
	window
	nmp []graph.Vertex

	// mark is the direct-addressed membership array of the current cone
	// vertex, one entry per vertex id of the store: mark[w] == epoch iff
	// w ∈ N(u). Bumping epoch empties it in O(1).
	mark  []uint32
	epoch uint32
	hits  [256]graph.Vertex // one block's matches, between probing and emitting
}

// NewRunner validates cfg and builds a reusable runner; each RunRange call
// names its own range and sink. A nil cfg.Source opens a private buffered
// source (closed by Close); an engine-supplied handle is used as-is and stays
// the engine's to close.
func NewRunner(d *graph.Disk, cfg Config) (*Runner, error) {
	r, err := newRunner(d, cfg)
	if err != nil {
		return nil, err
	}
	if r.segScratch != nil {
		r.listBuf = make([]graph.Vertex, 0, cap(r.nmp))
	}
	if r.handle == nil {
		src, err := scan.New(scan.SourceBuffered, d, scan.Config{BufBytes: cfg.BufBytes, Counter: r.counter})
		if err != nil {
			return nil, err
		}
		h, err := src.Handle(r.counter)
		if err != nil {
			src.Close()
			return nil, err
		}
		r.ownedSrc = src
		r.handle = h
	}
	return r, nil
}

// newRunner builds everything of a runner but its access to the adjacency
// data: the per-runner state the cone routines need.
func newRunner(d *graph.Disk, cfg Config) (*Runner, error) {
	if !d.Meta.Oriented {
		return nil, fmt.Errorf("mgt: store %q is not oriented", d.Base)
	}
	if cfg.MemEdges < 1 {
		return nil, fmt.Errorf("mgt: memory budget %d edges, need ≥ 1", cfg.MemEdges)
	}
	kernel, err := ParseKernel(string(cfg.Kernel))
	if err != nil {
		return nil, err
	}
	counter := cfg.Counter
	if counter == nil {
		counter = ioacct.NewCounter(0)
	}
	r := &Runner{
		disk:    d,
		cfg:     cfg,
		counter: counter,
		handle:  cfg.Source,
		merge:   kernel == KernelMerge,
		// N+(u) has at most one entry per vertex of the window and per
		// entry of N(u).
		nmp: make([]graph.Vertex, 0, min(int(d.Meta.MaxOutDegree), cfg.MemEdges)),
		// Sized from the store this runner scans: a live graph's merged view
		// carries vertex ids its base store does not.
		mark: make([]uint32, d.NumVertices()),
	}
	if d.Format() == graph.FormatCompressed {
		r.segScratch = make([]graph.Vertex, 0, graph.SegmentEntries)
	}
	return r, nil
}

// Close releases the private source a Runner opened for itself; an
// engine-supplied handle is left open (the engine owns it).
func (r *Runner) Close() error {
	if r.ownedSrc == nil {
		return nil
	}
	err := r.handle.Close()
	if cerr := r.ownedSrc.Close(); err == nil {
		err = cerr
	}
	r.ownedSrc = nil
	return err
}

// RunRange executes modified MGT over one pivot range, reporting triangles
// to sink; a nil sink counts only (the paper measures counting time, "or 0
// for triangle counting" in Theorem IV.3), with the same count and steps.
// The returned Stats cover this call alone — wall time and the I/O delta
// since the call started — so a scheduler can fold them per chunk. An empty
// range is a no-op.
//
// The context is the runner's cancellation point: it is checked once per
// memory window, so cancellation aborts the run within one window (and, for
// a shared scan source, also unblocks mid-pass ring-buffer waits). A
// cancelled run returns ctx.Err() with the statistics accumulated so far. A
// nil ctx means context.Background().
func (r *Runner) RunRange(ctx context.Context, rng balance.Range, sink Sink) (Stats, error) {
	//pdtl:nondeterministic-ok wall-clock feeds Stats.Wall only, never listing order
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	total := r.disk.Meta.AdjEntries
	if rng.Hi > total || rng.Lo > rng.Hi {
		return Stats{}, fmt.Errorf("mgt: range [%d,%d) out of bounds for %d entries", rng.Lo, rng.Hi, total)
	}
	r.stats = Stats{}
	r.sink = sink
	ioStart := r.counter.Snapshot()
	// The chunk span (allocation-free: cursor lookup plus slab writes).
	// Its attributes carry this call's stat deltas, so a trace attributes
	// wall time to scan I/O vs. intersection CPU per chunk.
	cur := obs.CursorFrom(ctx)
	span := cur.Begin(obs.SpanChunk)

	finish := func(err error) (Stats, error) {
		r.stats.Wall = time.Since(start) //pdtl:nondeterministic-ok timing stat only
		r.stats.IO = r.counter.Snapshot().Sub(ioStart)
		cur.SetAttr(span, "lo", int64(rng.Lo))
		cur.SetAttr(span, "hi", int64(rng.Hi))
		cur.SetAttr(span, "cmp_ops", int64(r.stats.CmpOps))
		cur.SetAttr(span, "io_bytes", r.stats.IO.BytesRead)
		cur.SetAttr(span, "word_ops", int64(r.stats.WordOps))
		cur.SetAttr(span, "passes", int64(r.stats.Passes))
		cur.End(span)
		r.sink = nil
		// A cancelled run reports the bare ctx.Err(), whichever layer the
		// cancellation surfaced through first (window check here, or a scan
		// source's wrapped ring-buffer error).
		if cerr := ctx.Err(); cerr != nil {
			return r.stats, cerr
		}
		return r.stats, err
	}
	for pos := rng.Lo; pos < rng.Hi; {
		// The per-window cancellation point: one check per memory window
		// bounds abort latency at a single window's load + pass.
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		end := pos + uint64(r.cfg.MemEdges)
		if end > rng.Hi {
			end = rng.Hi
		}
		if err := r.loadWindow(pos, end); err != nil {
			return finish(err)
		}
		if err := r.scanPass(); err != nil {
			return finish(err)
		}
		r.stats.Passes++
		pos = end
	}
	return finish(nil)
}

// loadWindow loads the edge window [pos, end) and builds ind over its
// vertex span.
func (r *Runner) loadWindow(pos, end uint64) error {
	r.bound(r.disk, pos, end)
	if err := r.handle.ReadEntries(r.edg, pos); err != nil {
		return fmt.Errorf("mgt: load window: %w", err)
	}
	r.stats.EdgesLoaded += end - pos
	r.index(r.disk, r.vlow, r.vhigh+1)
	return nil
}

// scanPass streams the whole adjacency file once, reporting every triangle
// whose pivot edge is inside the current window. Cone vertices whose
// out-list exceeds M arrive in segments and take the large-vertex path. A
// compressed store's scan delivers the lists encoded, and only those whose
// segment headers say they can reach the window are decoded (scanPassPruned).
func (r *Runner) scanPass() error {
	d := r.disk
	sc, err := r.handle.Scan(r.cfg.MemEdges)
	if err != nil {
		return err
	}
	defer sc.Close()
	if csc, ok := sc.(scan.CompressedScan); ok {
		return r.scanPassPruned(sc, csc)
	}

	for {
		u, nm, ok := sc.Next()
		if !ok {
			break
		}
		if int(d.Degrees[u]) > r.cfg.MemEdges {
			if err := r.largeVertex(sc, u, nm); err != nil {
				return err
			}
			continue
		}
		if len(nm) < 2 {
			continue // need at least a pivot source and a closing vertex
		}
		// Quick reject: nm is sorted, so if it cannot contain any vertex
		// of [vlow, vhigh] there is nothing to do.
		if nm[len(nm)-1] < r.vlow || nm[0] > r.vhigh {
			continue
		}
		if !r.cone(u, nm) {
			return r.errVertexID(u)
		}
	}
	return sc.Err()
}

// scanPassPruned is scanPass over a compressed store. In a multi-window run
// most cone lists cannot reach the window at all — its vertex span
// [vlow, vhigh] is a sliver of the graph — yet the decoding scan would
// expand every one of them before the quick reject looked at its ends. Here the list arrives encoded, the reject runs
// on its segment headers (CompressedList.Bounds: every header is parsed and
// validated, no payload is touched), and only the survivors are decoded.
// The survivors are exactly the lists the decoding pass would not have
// rejected, decoded to the same values, so the triangle stream is
// identical.
func (r *Runner) scanPassPruned(sc scan.Scan, csc scan.CompressedScan) error {
	d := r.disk
	for {
		u, cl, ok := csc.NextCompressed()
		if !ok {
			break
		}
		if int(d.Degrees[u]) > r.cfg.MemEdges {
			if err := r.largeVertexCompressed(u, cl); err != nil {
				return fmt.Errorf("mgt: list of large vertex %d: %w", u, err)
			}
			continue
		}
		if cl.Degree < 2 {
			continue // need at least a pivot source and a closing vertex
		}
		first, last, _, err := cl.Bounds()
		if err != nil {
			return fmt.Errorf("mgt: list of vertex %d: %w", u, err)
		}
		if last < r.vlow || first > r.vhigh {
			r.stats.SegmentsSkipped += uint64((cl.Degree + graph.SegmentEntries - 1) / graph.SegmentEntries)
			continue
		}
		nm, err := cl.Decode(r.listBuf[:0])
		if err != nil {
			return fmt.Errorf("mgt: decode list of vertex %d: %w", u, err)
		}
		if !r.cone(u, nm) {
			return r.errVertexID(u)
		}
	}
	return sc.Err()
}

// cone reports the triangles of cone vertex u whose pivot edge is in the
// window: nm = N(u), decoded and known to overlap [vlow, vhigh]. It reports
// false if N(u) names a vertex id the store does not have (errVertexID).
//
//pdtl:hotpath
func (r *Runner) cone(u graph.Vertex, nm []graph.Vertex) bool {
	nmp := r.inWindow(r.nmp[:0], nm)
	if r.merge {
		for _, v := range nmp {
			e := r.ind[v-r.vlow]
			r.intersect(u, v, nm, r.edg[e.off:e.off+e.len])
		}
		return true
	}
	if len(nmp) == 0 {
		return true
	}
	r.bumpEpoch()
	if !r.stamp(nm) {
		return false
	}
	r.probe(u, nmp)
	return true
}

// intersect is KernelMerge's routine, Algorithm 2's inner loop: the
// two-pointer merge of sorted nm = N(u) with sorted ev = Ev, every common
// vertex w closing triangle (u, v, w) with pivot (v, w). One step per
// iteration; a sink, when attached, hears of every match.
//
//pdtl:hotpath
func (r *Runner) intersect(u, v graph.Vertex, nm, ev []graph.Vertex) {
	var steps, found uint64
	for i, j := 0, 0; i < len(nm) && j < len(ev); {
		steps++
		switch x, y := nm[i], ev[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			found++
			if r.sink != nil {
				r.sink.Triangle(u, v, x)
			}
			i++
			j++
		}
	}
	r.stats.Intersections++
	r.stats.CmpOps += steps
	r.stats.Triangles += found
}

// inWindow appends to nmp the part of N+(u) found in the sorted run vals of
// N(u): the out-neighbors with out-edges in memory.
//
//pdtl:hotpath
func (r *Runner) inWindow(nmp, vals []graph.Vertex) []graph.Vertex {
	// A window far into a long list (a tile of a window, walked once per
	// tile) is found by bisection, not by stepping up to it.
	if len(vals) > 8 && vals[8] < r.vlow {
		lo, hi := 9, len(vals)
		for lo < hi {
			if mid := int(uint(lo+hi) >> 1); vals[mid] < r.vlow {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		vals = vals[lo:]
	}
	for _, v := range vals {
		if v < r.vlow {
			continue
		}
		if v > r.vhigh {
			break
		}
		if r.ind[v-r.vlow].len > 0 {
			nmp = append(nmp, v)
		}
	}
	return nmp
}

// bumpEpoch empties the mark array for the next cone vertex. On wrap-around
// the stamps are cleared, so a stale epoch value can never alias a fresh
// one.
func (r *Runner) bumpEpoch() {
	r.epoch++
	if r.epoch == 0 {
		clear(r.mark)
		r.epoch = 1
	}
}

// stamp marks the run vals of N(u) in the current epoch. It reports false
// on a vertex id the store's degree array does not cover — damaged
// adjacency data, which must fail the run rather than index out of range.
//
//pdtl:hotpath
func (r *Runner) stamp(vals []graph.Vertex) bool {
	mark, epoch := r.mark, r.epoch
	for _, w := range vals {
		if int(w) >= len(mark) {
			return false
		}
		mark[w] = epoch
	}
	r.stats.CmpOps += uint64(len(vals))
	return true
}

// errBadVertexID is what a hot-path routine returns for a list naming a
// vertex the store does not have; errVertexID is the error the run reports.
var errBadVertexID = errors.New("vertex id beyond the store: store is damaged")

func (r *Runner) errVertexID(u graph.Vertex) error {
	return fmt.Errorf("mgt: list of vertex %d names a vertex id ≥ %d: store is damaged", u, len(r.mark))
}

// probe closes the triangles of cone vertex u once N(u) is stamped: for
// every v ∈ nmp, each w ∈ Ev carrying the current epoch is in N(u) too —
// triangle (u, v, w) with pivot (v, w), reported v ascending, w ascending,
// the order the pairwise merges produce. Whether a probe hits is a coin
// flip no branch predictor wins, so both loops are branch-free on it: the
// counting loop adds the comparison's 0/1, the listing loop compacts a
// block's hits into a buffer and emits from there.
//
//pdtl:hotpath
func (r *Runner) probe(u graph.Vertex, nmp []graph.Vertex) {
	mark, epoch, hits := r.mark, r.epoch, &r.hits
	var found, probes uint64
	for _, v := range nmp {
		e := r.ind[v-r.vlow]
		ev := r.edg[e.off : e.off+e.len]
		probes += uint64(len(ev))
		if r.sink == nil {
			for _, w := range ev {
				if int(w) < len(mark) {
					var hit uint64
					if mark[w] == epoch {
						hit = 1
					}
					found += hit
				}
			}
			continue
		}
		for len(ev) > 0 {
			blk := ev[:min(len(ev), len(hits))]
			ev = ev[len(blk):]
			k := 0
			for _, w := range blk {
				if int(w) < len(mark) {
					hits[k] = w // kept only if the next line advances k
					if mark[w] == epoch {
						k++
					}
				}
			}
			found += uint64(k)
			for _, w := range hits[:k] {
				r.sink.Triangle(u, v, w)
			}
		}
	}
	r.stats.Intersections += uint64(len(nmp))
	r.stats.CmpOps += probes
	r.stats.Triangles += found
}

// decodeSegmentFast decodes one segment into the runner's scratch through
// the unrolled decoder, crediting the runner's vectorization counters.
func (r *Runner) decodeSegmentFast(seg graph.Segment) ([]graph.Vertex, error) {
	vals, blocks, err := graph.DecodeSegmentFast(seg, r.segScratch)
	if err != nil {
		return nil, err
	}
	if seg.Kind == graph.SegVarint {
		// Bitmap segments pass through to the scalar expansion; only
		// varint segments took the unrolled path.
		r.stats.FastDecodes++
		r.stats.WordOps += uint64(blocks)
	}
	return vals, nil
}

// largeVertex handles a cone vertex u with d*(u) > M without ever holding
// N(u) in memory — the paper's footnote-1 removal of the small-degree
// assumption — under any kernel. N(u) arrives in sorted segments of at most
// M entries (firstSeg is the one the scanner already yielded); each is
// stamped into the mark array and filtered for N+(u) as it streams by, and
// then the same probe as a small vertex's closes the triangles. All that
// outlives a segment is mark (n entries) and nmp (at most one entry per
// window vertex, so ≤ M): one read of N(u), no second pass.
func (r *Runner) largeVertex(sc scan.Scan, u graph.Vertex, firstSeg []graph.Vertex) error {
	r.stats.LargeVertices++
	r.bumpEpoch()
	nmp := r.nmp[:0]
	remaining := int(r.disk.Degrees[u])
	for seg := firstSeg; ; {
		if !r.stamp(seg) {
			return r.errVertexID(u)
		}
		nmp = r.inWindow(nmp, seg)
		if remaining -= len(seg); remaining <= 0 {
			break
		}
		u2, next, ok := sc.Next()
		if !ok {
			return fmt.Errorf("mgt: truncated segments for vertex %d: %w", u, sc.Err())
		}
		if u2 != u {
			return fmt.Errorf("mgt: segment stream switched from %d to %d mid-list", u, u2)
		}
		seg = next
	}
	r.probe(u, nmp)
	return nil
}

// largeVertexCompressed is largeVertex for a compressed store, where the
// whole encoded list is in hand (compressed lists are not segmented by
// maxList) and is decoded one 256-entry segment at a time. Errors come back
// bare, for the caller to name u.
//
//pdtl:hotpath
func (r *Runner) largeVertexCompressed(u graph.Vertex, cl graph.CompressedList) error {
	r.stats.LargeVertices++
	r.bumpEpoch()
	nmp := r.nmp[:0]
	it := cl.Segments()
	for {
		seg, ok := it.Next()
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
	if err := it.Err(); err != nil {
		return err
	}
	r.probe(u, nmp)
	return nil
}

// FullRange returns the range covering the whole oriented store.
func FullRange(d *graph.Disk) balance.Range {
	return balance.Range{Lo: 0, Hi: d.Meta.AdjEntries}
}

// CheckSmallDegree verifies the paper's small-degree assumption
// d*max ≤ c·M/2 for implementation constant c < 1 (we use c = 1 and warn at
// equality): it returns an error describing the violation, or nil. The
// algorithm stays correct without it — only the CPU bound of Theorem IV.2
// needs it — so callers treat this as advisory.
func CheckSmallDegree(d *graph.Disk, memEdges int) error {
	if uint64(d.Meta.MaxOutDegree) > uint64(memEdges)/2 {
		return fmt.Errorf("mgt: small-degree assumption violated: d*max=%d > M/2=%d (correctness unaffected; CPU bound of Theorem IV.2 may not hold)",
			d.Meta.MaxOutDegree, memEdges/2)
	}
	return nil
}

// CountSink accumulates a plain count; it is the zero-cost sink used when
// only the total is needed by a caller that still wants sink plumbing.
type CountSink struct {
	N uint64
}

// Triangle implements Sink.
func (c *CountSink) Triangle(u, v, w graph.Vertex) { c.N++ }

// FuncSink adapts a function to the Sink interface.
type FuncSink func(u, v, w graph.Vertex)

// Triangle implements Sink.
func (f FuncSink) Triangle(u, v, w graph.Vertex) { f(u, v, w) }

// ReadTriangles decodes a listing — little-endian uint32 triples, as a
// Listing writes them — back into triples (test/tool helper).
func ReadTriangles(r io.Reader) ([][3]graph.Vertex, error) {
	var out [][3]graph.Vertex
	buf := make([]byte, 12)
	for {
		_, err := io.ReadFull(r, buf)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, [3]graph.Vertex{
			binary.LittleEndian.Uint32(buf[0:]),
			binary.LittleEndian.Uint32(buf[4:]),
			binary.LittleEndian.Uint32(buf[8:]),
		})
	}
}
