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
//	      adjacency file (the current window of pivot edges);
//	ind — for each vertex v in [vlow, vhigh], the offset and length of the
//	      in-memory portion Ev of v's out-list inside edg;
//	nm  — N(u), the out-list of the current cone candidate u, read from the
//	      adjacency file (or served from edg when the window holds it whole);
//	nmp — N+(u) = N(u) ∩ V+mem, computed by probing ind.
//
// Algorithm 2 then merges nm against Ev once per v ∈ nmp, re-walking N(u)
// |N+(u)| times. The runner's cone routine walks it once instead: it
// stamps every w ∈ nm with a fresh epoch in mark, a direct-addressed array
// over the vertex ids, and probes every in-window Ev against it —
// d(u) + Σ|Ev| steps per cone vertex instead of Σ(d(u) + |Ev|), same
// triangles in the same order. mark is no hash set: one load per probe, no
// hashing, no collisions, nothing to clear between cone vertices
// (DESIGN.md §5). On a ranked store, whose lists name only smaller ids, a
// pivot source v = nm[j] can only be closed by nm[:j], and a round gives
// every dense Ev a bitset: the routine tests those j candidates against it
// instead of probing Ev whenever j ≤ |Ev| (coneDense, the dense window
// lists).
//
// A run is restricted to contiguous *global* edge ranges: its pivot
// responsibility in PDTL (Section IV-B). Every triangle is reported exactly
// once across runs, by the run (and window) that holds the triangle's pivot
// edge. With the full range this is exactly the paper's single-core MGT, the
// baseline of Figure 11.
//
// There is one reader (coop.go): RunDealt runs P runners over one window of
// P·M entries, dealing them the cone blocks of every round. The engine's
// default gives a node's runners one such run; the paper's layout — one
// runner per range, each with a private M-entry window — is one run per
// range with a single runner, which is what a Runner (NewRunner, RunRange)
// keeps between calls.
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
)

// Sink consumes listed triangles, each (u, v, w) with u ≺ v ≺ w in the
// degree-based order. Triangles reports the triangles (u, v, w) for every w
// of ws, in that order: the closing vertices a pair (u, v) has in one chunk
// of Ev's probes, at most 256, so a cone pays an interface call per chunk,
// not per triangle. ws is the runner's buffer, reused once the call
// returns. Implementations are called from a single goroutine per runner.
type Sink interface {
	Triangles(u, v graph.Vertex, ws []graph.Vertex)
}

// batchLen is the most closing vertices one Triangles call carries: the
// runner's hits buffer, between probing a chunk of Ev and emitting its
// matches.
const batchLen = 256

// CheckKernel refuses a cone routine named from outside the program — a
// cluster batch, a service query — that is not the one routine there is:
// the empty string and "auto" name it, and any other name, one a removed
// routine answered to included, is an error naming it.
func CheckKernel(name string) error {
	if name != "" && name != "auto" {
		return fmt.Errorf("mgt: unknown kernel %q (want auto)", name)
	}
	return nil
}

// Config parameterizes a Runner.
type Config struct {
	// MemEdges is M, the number of adjacency entries the runner may hold
	// in its edg window at once. It drives the pass count R = ceil(S/M)
	// (Section IV-B2). Must be ≥ 1.
	MemEdges int
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
	// summed over all cone vertices of all passes.
	Intersections uint64
	// CmpOps counts the steps inside the intersections — a
	// machine-independent proxy for the CPU work of Theorem IV.2's
	// O(|E|²/M + α|E|) term, which the paper-claims ledger compares
	// independently of the host's core count. It is stamps written plus
	// probes made, d(u) + Σ|Ev| per cone vertex — plus bit tests on a ranked store, where
	// a pair tested against Ev's bitset costs j, the candidates of N(u)
	// below v, instead of |Ev|, and a cone vertex none of whose pairs is
	// probed costs d(u) for the check of N(u) instead of its stamps. All are
	// exact and repeat from run to run.
	CmpOps uint64
	// LargeVertices counts cone vertices whose out-list was longer than the
	// window or a cone block and arrived in pieces (the removal of the
	// small-degree assumption, footnote 1 of the paper). They cost no extra
	// I/O.
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
// in-memory out-edges sit. The cone routines only read it, so one window,
// loaded once a round, serves every runner of the round.
type window struct {
	edg          []graph.Vertex
	ind          []indEntry
	vlow, vhigh  graph.Vertex
	winLo, winHi uint64
	// The vertices [resLo, resHi) have their whole lists in the window.
	resLo, resHi graph.Vertex
	// The dense window lists (DESIGN.md §5), in a round that built them:
	// dense, beside ind, is where v's bitset begins in bits, 0 if v has
	// none; empty in a round without bitsets.
	// A bitset is a header word — the id of its bit 0 in the low half, how
	// many words of bits follow in the high half — and then the bits.
	dense []uint32
	bits  []uint64
}

// bound sets the window to the entries [lo, hi) of d, sizing edg and ind —
// and, if dense, the bitset index beside ind — to it, never to the budget:
// a store smaller than M costs its own size. The contents are the caller's
// to fill.
func (w *window) bound(d *graph.Disk, lo, hi uint64, dense bool) {
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
	n := int(w.vhigh-w.vlow) + 1
	if cap(w.ind) < n {
		w.ind = make([]indEntry, n)
	} else {
		w.ind = w.ind[:n]
	}
	switch {
	case !dense:
		w.dense = w.dense[:0]
	case cap(w.dense) < n:
		w.dense = make([]uint32, n)
	default:
		w.dense = w.dense[:n]
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

// measure sizes the bitsets of the window vertices [a, z): dense[v] becomes
// the words v's takes, its header included, or 0 if Ev gets none. Ev gets
// one if it is strictly ascending (a damaged list keeps the mark path) and
// dense enough that its bitset takes no more bytes than it does: the header
// and ⌈span/64⌉ words of bits are at most a word per two entries, so Ev
// spans fewer than 32·|Ev| ids. measure returns the words.
func (w *window) measure(a, z graph.Vertex) uint64 {
	var total uint64
	for v := a; v < z; v++ {
		e := w.ind[v-w.vlow]
		ev := w.edg[e.off : e.off+e.len]
		w.dense[v-w.vlow] = 0
		if len(ev) < 4 { // the smallest bitset, two words, is as large as four entries
			continue
		}
		span := uint64(ev[len(ev)-1]-ev[0]) + 1 // nonsense out of order, which ascending rejects
		words := 1 + (span+63)/64
		if 2*words > uint64(len(ev)) || !ascending(ev) {
			continue
		}
		w.dense[v-w.vlow] = uint32(words)
		total += words
	}
	return total
}

// ascending reports whether vals is strictly ascending.
func ascending(vals []graph.Vertex) bool {
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			return false
		}
	}
	return true
}

// build writes the measured bitsets of the window vertices [a, z) into bits
// from word at on, and points dense at them; at 0 it builds none.
func (w *window) build(a, z graph.Vertex, at uint64) {
	for v := a; v < z; v++ {
		words := uint64(w.dense[v-w.vlow])
		if words == 0 || at == 0 {
			w.dense[v-w.vlow] = 0
			continue
		}
		e := w.ind[v-w.vlow]
		ev := w.edg[e.off : e.off+e.len]
		base := ev[0]
		set := w.bits[at : at+words]
		set[0] = uint64(base) | (words-1)<<32
		set = set[1:]
		clear(set)
		for _, x := range ev {
			i := x - base
			set[i>>6] |= 1 << (i & 63)
		}
		w.dense[v-w.vlow] = uint32(at)
		at += words
	}
}

// Runner is the paper's layout for one processor: a cooperative run of one
// runner (RunDealt at Workers 1) kept between calls. It owns its window
// (grown to the largest it has loaded, at most M entries), its mark array,
// its block buffers and its descriptor — O(M + n) entries — and reuses them
// across RunRange calls: a cluster node executes many chunks back to back,
// and per-chunk reallocation would dominate small chunks. A Runner is not
// safe for concurrent use.
type Runner struct {
	dl    *dealer
	spans [1]balance.Range // RunRange's one span, here so that a call allocates nothing
}

// NewRunner validates cfg and builds a reusable runner over d; each RunRange
// call names its own range and sink. Close releases its descriptor.
func NewRunner(d *graph.Disk, cfg Config) (*Runner, error) {
	dl, err := newDealer(d, DealConfig{Workers: 1, MemEdges: cfg.MemEdges})
	if err != nil {
		return nil, err
	}
	return &Runner{dl: dl}, nil
}

// Close releases the runner's descriptor.
func (r *Runner) Close() error { return r.dl.close() }

// RunRange executes modified MGT over one pivot range, reporting triangles
// to sink; a nil sink counts only (the paper measures counting time, "or 0
// for triangle counting" in Theorem IV.3), with the same count. The returned
// Stats cover this call alone — wall time and the I/O it did, window loads
// included — so a scheduler can fold them per chunk. An empty range is a
// no-op.
//
// The context is checked between cone blocks; a cancelled run returns the
// bare ctx.Err() with the statistics accumulated so far. A nil ctx means
// context.Background().
func (r *Runner) RunRange(ctx context.Context, rng balance.Range, sink Sink) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if total := r.dl.d.Meta.AdjEntries; rng.Hi > total || rng.Lo > rng.Hi {
		return Stats{}, fmt.Errorf("mgt: range [%d,%d) out of bounds for %d entries", rng.Lo, rng.Hi, total)
	}
	one := r.dl.runners[0]
	one.sink = sink
	r.spans[0] = rng
	err := r.dl.run(ctx, r.spans[:])
	one.sink = nil
	st := one.stats
	st.IO = st.IO.Add(one.loadIO) // the window is this runner's alone
	return st, err
}

// cone reports the triangles of cone vertex u whose pivot edge is in the
// window: nm = N(u), decoded and known to overlap [vlow, vhigh]. It reports
// false if N(u) names a vertex id the store does not have (errVertexID).
//
//pdtl:hotpath
func (r *dealt) cone(u graph.Vertex, nm []graph.Vertex) bool {
	nmp := r.inWindow(r.nmp[:0], nm)
	if len(nmp) == 0 {
		return true
	}
	// (nmp outgrows at only where N(u) names a window vertex twice.)
	if len(r.dense) > 0 && len(nmp) <= len(r.at) {
		return r.coneDense(u, nm, nmp)
	}
	r.bumpEpoch()
	if !r.stamp(nm) {
		return false
	}
	r.probe(u, nmp)
	return true
}

// coneDense is cone against a window with bitsets. Ev names only ids below
// v, so of an ascending N(u) only nm[:j], the j entries before v = nm[j],
// can close a triangle with pivot source v. When v has a bitset and j ≤
// |Ev|, those j candidates are tested against it; any other v is probed
// against N(u) as cone does. The same triangles in the same order — v
// ascending, and w ascending either way — at j bit tests for a pair instead
// of |Ev| probes. An N(u) that is not ascending (a damaged list) takes the
// mark path whole.
//
//pdtl:hotpath
func (r *dealt) coneDense(u graph.Vertex, nm, nmp []graph.Vertex) bool {
	// N(u) is checked as stamp checks it, before any bitset is tested for
	// one of its ids, and for order.
	prev, sorted := nm[0], true
	for _, w := range nm {
		if int(w) >= len(r.mark) {
			return false
		}
		sorted = sorted && w >= prev
		prev = w + 1
	}
	if !sorted {
		r.bumpEpoch()
		r.stamp(nm)
		r.probe(u, nmp)
		return true
	}
	// Where each v sits in nm — nmp is a subsequence of it — or -1 if its
	// pair takes the mark path.
	at := r.at[:len(nmp)]
	marks := false
	j := 0
	for i, v := range nmp {
		for nm[j] != v {
			j++
		}
		at[i] = j
		if r.dense[v-r.vlow] == 0 || uint32(j) > r.ind[v-r.vlow].len {
			at[i], marks = -1, true
		}
	}
	// N(u) is walked once more only if a pair needs it stamped.
	if marks {
		r.bumpEpoch()
		r.stamp(nm)
	} else {
		r.stats.CmpOps += uint64(len(nm))
	}
	var found, steps uint64
	for i, v := range nmp {
		if j := at[i]; j >= 0 {
			off := uint64(r.dense[v-r.vlow])
			hdr := r.bits[off]
			found += r.testBits(u, v, nm[:j], r.bits[off+1:off+1+hdr>>32], graph.Vertex(hdr))
			steps += uint64(j)
			continue
		}
		e := r.ind[v-r.vlow]
		ev := r.edg[e.off : e.off+e.len]
		found += r.markHits(u, v, ev)
		steps += uint64(len(ev))
	}
	r.stats.Intersections += uint64(len(nmp))
	r.stats.CmpOps += steps
	r.stats.Triangles += found
	return true
}

// testBits returns how many candidates w, all below v, are in the bitset
// set of Ev, whose bit 0 is vertex base, and reports each triangle (u, v,
// w) to the sink, a chunk of hits per call. A candidate outside the
// bitset's span is a miss. Like markHits, both loops are branch-free on
// whether a test hits; the one branch, on the span, changes at most twice
// along ascending candidates.
//
//pdtl:hotpath
func (r *dealt) testBits(u, v graph.Vertex, cand []graph.Vertex, set []uint64, base graph.Vertex) uint64 {
	var found uint64
	if r.sink == nil {
		for _, w := range cand {
			i := w - base
			if k := uint(i >> 6); k < uint(len(set)) {
				found += set[k] >> (i & 63) & 1
			}
		}
		return found
	}
	hits := &r.hits
	for len(cand) > 0 {
		blk := cand[:min(len(cand), len(hits))]
		cand = cand[len(blk):]
		k := 0
		for _, w := range blk {
			i := w - base
			if q := uint(i >> 6); q < uint(len(set)) {
				hits[k] = w // kept only if the next line advances k
				k += int(set[q] >> (i & 63) & 1)
			}
		}
		if k > 0 {
			found += uint64(k)
			r.sink.Triangles(u, v, hits[:k])
		}
	}
	return found
}

// inWindow appends to nmp the part of N+(u) found in the sorted run vals of
// N(u): the out-neighbors with out-edges in memory.
//
//pdtl:hotpath
func (r *dealt) inWindow(nmp, vals []graph.Vertex) []graph.Vertex {
	// A window that starts far into a long list (a later round of a store
	// larger than the window) is found by bisection, not by stepping up to
	// it.
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
func (r *dealt) bumpEpoch() {
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
func (r *dealt) stamp(vals []graph.Vertex) bool {
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

func (r *dealt) errVertexID(u graph.Vertex) error {
	return fmt.Errorf("mgt: list of vertex %d names a vertex id ≥ %d: store is damaged", u, len(r.mark))
}

// probe closes the triangles of cone vertex u once N(u) is stamped: for
// every v ∈ nmp, each w ∈ Ev carrying the current epoch is in N(u) too —
// triangle (u, v, w) with pivot (v, w), reported v ascending, w ascending,
// the order Algorithm 2's pairwise merges produce.
//
//pdtl:hotpath
func (r *dealt) probe(u graph.Vertex, nmp []graph.Vertex) {
	var found, probes uint64
	for _, v := range nmp {
		e := r.ind[v-r.vlow]
		ev := r.edg[e.off : e.off+e.len]
		probes += uint64(len(ev))
		found += r.markHits(u, v, ev)
	}
	r.stats.Intersections += uint64(len(nmp))
	r.stats.CmpOps += probes
	r.stats.Triangles += found
}

// markHits returns how many w ∈ ev carry the current epoch and reports each
// triangle (u, v, w) to the sink. Whether a probe hits is a coin flip no
// branch predictor wins, so both loops are branch-free on it: the counting
// loop adds the comparison's 0/1, the listing loop compacts a chunk's hits
// into a buffer and hands the sink the buffer in one call.
//
//pdtl:hotpath
func (r *dealt) markHits(u, v graph.Vertex, ev []graph.Vertex) uint64 {
	mark, epoch, hits := r.mark, r.epoch, &r.hits
	var found uint64
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
		return found
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
		if k > 0 {
			found += uint64(k)
			r.sink.Triangles(u, v, hits[:k])
		}
	}
	return found
}

// decodeSegmentFast decodes one segment into the runner's scratch through
// the unrolled decoder, crediting the runner's vectorization counters.
func (r *dealt) decodeSegmentFast(seg graph.Segment) ([]graph.Vertex, error) {
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

// FullRange returns the range covering the whole oriented store.
func FullRange(d *graph.Disk) balance.Range {
	return balance.Range{Lo: 0, Hi: d.Meta.AdjEntries}
}

// CountSink accumulates a plain count; it is the zero-cost sink used when
// only the total is needed by a caller that still wants sink plumbing.
type CountSink struct {
	N uint64
}

// Triangles implements Sink.
func (c *CountSink) Triangles(u, v graph.Vertex, ws []graph.Vertex) { c.N += uint64(len(ws)) }

// Relabel returns sink with its vertices renamed: vertex u reaches it as
// ids[u] (a ranked store's Perm, to report original ids). A nil ids returns
// sink itself. The sink it returns renames each batch into a buffer of its
// own, so, like any sink, it serves one runner.
func Relabel(sink Sink, ids []graph.Vertex) Sink {
	if ids == nil {
		return sink
	}
	return &relabeled{sink: sink, ids: ids, buf: make([]graph.Vertex, batchLen)}
}

type relabeled struct {
	sink Sink
	ids  []graph.Vertex
	buf  []graph.Vertex
}

// Triangles implements Sink.
func (r *relabeled) Triangles(u, v graph.Vertex, ws []graph.Vertex) {
	u, v = r.ids[u], r.ids[v]
	for len(ws) > 0 {
		out := r.buf[:min(len(ws), len(r.buf))]
		for i, w := range ws[:len(out)] {
			out[i] = r.ids[w]
		}
		r.sink.Triangles(u, v, out)
		ws = ws[len(out):]
	}
}

// FuncSink adapts a function of one triangle to the Sink interface.
type FuncSink func(u, v, w graph.Vertex)

// Triangles implements Sink.
func (f FuncSink) Triangles(u, v graph.Vertex, ws []graph.Vertex) {
	for _, w := range ws {
		f(u, v, w)
	}
}

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
