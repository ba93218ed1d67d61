package scan

import (
	"fmt"

	"pdtl/internal/graph"
)

// KernelKind names an IntersectKernel implementation, as used by CLI
// flags, the cluster wire format, and core.Options.
type KernelKind string

const (
	// KernelAuto, the zero value, names no pairwise kernel: the runner's own
	// mark-and-probe cone routine does the intersecting (mgt.Config.Kernel,
	// the one place that gives the unset kernel its meaning). It stays the
	// empty string on the wire and in Options, so every layer passes it
	// through untouched and a peer that predates the routine still answers;
	// flags and reports spell it "auto".
	KernelAuto KernelKind = ""
	// KernelMerge is the paper's two-pointer merge (Section IV-A: sorted
	// arrays, never hash sets) — the paper ablation.
	KernelMerge KernelKind = "merge"
	// KernelGallop probes the longer list by exponential + binary search
	// for each element of the shorter — O(s·log(l/s)), a large win when
	// the operands are badly skewed, as they are on social graphs where a
	// hub's cone list meets tiny in-memory Ev lists.
	KernelGallop KernelKind = "gallop"
	// KernelAdaptive picks merge or gallop per pair by length ratio.
	KernelAdaptive KernelKind = "adaptive"
	// KernelCompressed is the block-skipping kernel: the cone list is
	// processed in 256-entry blocks (the compressed store's segment
	// granularity) whose value ranges are tested against the other operand
	// before any per-element work — and, on a compressed store, directly
	// against the segment headers, decoding only surviving segments.
	KernelCompressed KernelKind = "compressed"
	// KernelCover is the range-cover pre-filter (after the cover-edge idea
	// of Bader et al., arXiv:2403.02997, that many intersections are
	// provably empty and can be skipped outright): operands whose value
	// ranges do not overlap are rejected in O(1), and surviving pairs are
	// first narrowed to the covered range by galloping, then intersected
	// adaptively. The full BFS cover-edge labeling of that paper prunes
	// more but changes which (u, v) pairs are attempted — incompatible
	// with PDTL's pivot-edge windows and byte-deterministic listings — so
	// only its range-cover filter is adopted.
	KernelCover KernelKind = "cover"
)

// ParseKernel validates a kernel name from a flag or wire message. The
// empty string and "auto" both mean KernelAuto.
func ParseKernel(s string) (KernelKind, error) {
	switch KernelKind(s) {
	case KernelAuto, "auto":
		return KernelAuto, nil
	case KernelMerge, KernelGallop, KernelAdaptive, KernelCompressed, KernelCover:
		return KernelKind(s), nil
	}
	return "", fmt.Errorf("scan: unknown intersect kernel %q (want auto, merge, gallop, adaptive, compressed, or cover)", s)
}

// String is the name reports print: "auto" for KernelAuto.
func (k KernelKind) String() string {
	if k == KernelAuto {
		return "auto"
	}
	return string(k)
}

// KernelKinds lists every named kernel, in the order tests and benchmarks
// sweep them. KernelAuto is not one of them.
func KernelKinds() []KernelKind {
	return []KernelKind{KernelMerge, KernelGallop, KernelAdaptive, KernelCompressed, KernelCover}
}

// Kernel intersects two sorted duplicate-free vertex lists. Every kernel
// emits the common elements in ascending order — triangle listing order is
// therefore identical across kernels — and returns its comparison-step
// count, the machine-independent CPU proxy behind mgt.Stats.CmpOps.
type Kernel interface {
	Kind() KernelKind
	Intersect(a, b []graph.Vertex, emit func(w graph.Vertex)) (steps uint64)
}

// BlockKernel is the optional kernel extension that intersects a compressed
// list with a plain sorted list without decompressing it first: segments are
// rejected on their (first, last) headers alone, surviving varint segments
// decode into scratch, and bitmap segments are probed per b element in O(1).
// skipped counts header-rejected segments. Matches are emitted in ascending
// order, identical to every other kernel.
//
// Scratch ownership contract: scratch is a reusable decode buffer supplied
// by the caller so the kernel stays stateless. For the duration of one
// IntersectCompressed call the kernel owns it exclusively — it overwrites
// the buffer once per surviving varint segment, so its contents are
// garbage between segments and after the call returns. Consequently:
//
//   - the emit callback MUST NOT retain any slice aliasing scratch (it
//     receives values, never slices, precisely so it cannot);
//   - the caller may hand the same scratch to back-to-back calls for
//     different vertices — each call starts from scratch[:0] and never
//     reads stale contents (TestBlockKernelSharedScratch pins this);
//   - scratch needs capacity ≥ graph.SegmentEntries to stay
//     allocation-free; an undersized buffer (including nil) is replaced by
//     a private allocation rather than silently growing the caller's —
//     growth would split decode results between the caller's array and a
//     reallocated one, leaving the caller's prefix holding stale values
//     that alias nothing the kernel still uses.
type BlockKernel interface {
	Kernel
	IntersectCompressed(a graph.CompressedList, b []graph.Vertex, scratch []graph.Vertex, emit func(w graph.Vertex)) (steps, skipped uint64, err error)
}

// The kernel implementations are stateless; these singletons are the only
// instances anyone needs.
var (
	// Merge is the paper-faithful two-pointer merge kernel.
	Merge Kernel = mergeKernel{}
	// Gallop is the exponential/binary-search kernel for skewed operands.
	Gallop Kernel = gallopKernel{}
	// Adaptive picks Merge or Gallop per pair by length ratio.
	Adaptive Kernel = adaptiveKernel{}
	// Compressed is the block-skipping kernel; it also implements
	// BlockKernel for the direct-on-compressed path.
	Compressed Kernel = compressedKernel{}
	// Cover is the range-cover pre-filter kernel.
	Cover Kernel = coverKernel{}
)

// NewKernel returns the kernel implementation for kind; KernelAuto has
// none and yields the nil Kernel, which is what mgt.Config.Kernel takes for
// it.
func NewKernel(kind KernelKind) (Kernel, error) {
	switch kind {
	case KernelAuto:
		return nil, nil
	case KernelMerge:
		return Merge, nil
	case KernelGallop:
		return Gallop, nil
	case KernelAdaptive:
		return Adaptive, nil
	case KernelCompressed:
		return Compressed, nil
	case KernelCover:
		return Cover, nil
	}
	return nil, fmt.Errorf("scan: unknown kernel kind %q", kind)
}

// mergeKernel is the classic two-pointer merge; steps counts loop
// iterations, exactly as the previously hardwired loop in internal/mgt
// did, so CmpOps-based results are comparable with the seed.
type mergeKernel struct{}

func (mergeKernel) Kind() KernelKind { return KernelMerge }

//pdtl:hotpath
func (mergeKernel) Intersect(a, b []graph.Vertex, emit func(graph.Vertex)) uint64 {
	i, j := 0, 0
	var steps uint64
	for i < len(a) && j < len(b) {
		steps++
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			emit(x)
			i++
			j++
		}
	}
	return steps
}

// gallopKernel walks the shorter list and locates each element in the
// longer one by galloping (exponential probe doubling from the current
// cursor, then binary search inside the located window). steps counts
// probes and bisections.
type gallopKernel struct{}

func (gallopKernel) Kind() KernelKind { return KernelGallop }

//pdtl:hotpath
func (gallopKernel) Intersect(a, b []graph.Vertex, emit func(graph.Vertex)) uint64 {
	small, large := a, b
	if len(small) > len(large) {
		small, large = large, small
	}
	var steps uint64
	lo := 0
	for _, x := range small {
		if lo >= len(large) {
			break
		}
		// Exponential probe: find a window [lo, hi) that must contain
		// the first element >= x.
		bound := 1
		for lo+bound < len(large) && large[lo+bound] < x {
			bound <<= 1
			steps++
		}
		hi := lo + bound + 1
		if hi > len(large) {
			hi = len(large)
		}
		// Binary search for the first element >= x in [lo, hi).
		for lo < hi {
			steps++
			mid := int(uint(lo+hi) >> 1)
			if large[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(large) && large[lo] == x {
			emit(x)
			lo++
		}
	}
	return steps
}

// adaptiveRatio is the operand length ratio beyond which galloping beats
// the merge: below it the merge's branch-predictable linear walk wins,
// above it the O(s·log l) probe count does.
const adaptiveRatio = 8

// adaptiveKernel picks merge or gallop per pair by length ratio — the
// per-pair adaptivity that skewed (social) degree distributions reward,
// since one cone list meets both hub-sized and leaf-sized Ev operands
// within a single pass.
type adaptiveKernel struct{}

func (adaptiveKernel) Kind() KernelKind { return KernelAdaptive }

//pdtl:hotpath
func (adaptiveKernel) Intersect(a, b []graph.Vertex, emit func(graph.Vertex)) uint64 {
	s, l := len(a), len(b)
	if s > l {
		s, l = l, s
	}
	if s == 0 {
		return 0
	}
	if l/s >= adaptiveRatio {
		return gallopKernel{}.Intersect(a, b, emit)
	}
	return mergeKernel{}.Intersect(a, b, emit)
}

// boolStep charges one comparison step when cond holds.
//
//pdtl:hotpath
func boolStep(cond bool) uint64 {
	if cond {
		return 1
	}
	return 0
}

// gallopGE returns the first index ≥ from with b[idx] ≥ x, by exponential
// probe + binary search, and the comparison steps spent.
//
//pdtl:hotpath
func gallopGE(b []graph.Vertex, from int, x graph.Vertex) (int, uint64) {
	var steps uint64
	lo := from
	bound := 1
	for lo+bound < len(b) && b[lo+bound] < x {
		bound <<= 1
		steps++
	}
	hi := lo + bound + 1
	if hi > len(b) {
		hi = len(b)
	}
	for lo < hi {
		steps++
		mid := int(uint(lo+hi) >> 1)
		if b[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, steps
}

// gallopGT returns the first index ≥ from with b[idx] > x.
//
//pdtl:hotpath
func gallopGT(b []graph.Vertex, from int, x graph.Vertex) (int, uint64) {
	var steps uint64
	lo := from
	bound := 1
	for lo+bound < len(b) && b[lo+bound] <= x {
		bound <<= 1
		steps++
	}
	hi := lo + bound + 1
	if hi > len(b) {
		hi = len(b)
	}
	for lo < hi {
		steps++
		mid := int(uint(lo+hi) >> 1)
		if b[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, steps
}

// compressedKernel processes operand a in graph.SegmentEntries-sized blocks,
// testing each block's value range against the remaining portion of b
// before doing any per-element work — the plain-list analogue of the
// header-driven segment skipping it performs on a compressed store (see
// IntersectCompressed). Blocks that survive intersect adaptively against
// the gallop-narrowed covering slice of b.
type compressedKernel struct{}

func (compressedKernel) Kind() KernelKind { return KernelCompressed }

//pdtl:hotpath
func (compressedKernel) Intersect(a, b []graph.Vertex, emit func(graph.Vertex)) uint64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(a) <= graph.SegmentEntries {
		// Single block: the range test is the whole filter — no cursor to
		// advance, no narrowing gallops to pay for. A rejection costs one
		// step; on survival the test is not charged separately, since the
		// intersection's first comparison inspects the same operand
		// boundaries — surviving pairs cost exactly what adaptive costs.
		if a[len(a)-1] < b[0] || a[0] > b[len(b)-1] {
			return 1
		}
		return adaptiveKernel{}.Intersect(a, b, emit)
	}
	var steps uint64
	j := 0
	for off := 0; off < len(a) && j < len(b); off += graph.SegmentEntries {
		end := off + graph.SegmentEntries
		if end > len(a) {
			end = len(a)
		}
		blk := a[off:end]
		steps++ // block range test
		if blk[len(blk)-1] < b[j] {
			continue
		}
		if blk[0] > b[len(b)-1] {
			break
		}
		// b values ≤ blk's last cannot match any later block (a is sorted
		// strictly increasing across blocks), so the cursor advances past
		// the covered slice for good. The upper gallop resumes from lo, so
		// the two together cost one walk of the covered distance.
		lo, s := gallopGE(b, j, blk[0])
		steps += s
		hi, s := gallopGT(b, lo, blk[len(blk)-1])
		steps += s
		if lo < hi {
			steps += adaptiveKernel{}.Intersect(blk, b[lo:hi], emit)
		}
		j = hi
	}
	return steps
}

// IntersectCompressed implements BlockKernel: the same block skipping
// driven by the compressed store's segment headers, so rejected segments
// never have their payloads decoded, and dense bitmap segments are probed
// per b element instead of being expanded.
func (compressedKernel) IntersectCompressed(a graph.CompressedList, b []graph.Vertex, scratch []graph.Vertex, emit func(graph.Vertex)) (steps, skipped uint64, err error) {
	if a.Degree == 0 || len(b) == 0 {
		return 0, 0, nil
	}
	if cap(scratch) < graph.SegmentEntries {
		// Enforce the ownership contract: an undersized caller buffer is
		// replaced, never grown in place (see the BlockKernel doc).
		scratch = make([]graph.Vertex, 0, graph.SegmentEntries)
	}
	it := a.Segments()
	single := a.Degree <= graph.SegmentEntries
	j := 0
	for j < len(b) {
		seg, ok := it.Next()
		if !ok {
			return steps, skipped, it.Err()
		}
		if !single {
			steps++ // header range test, one per walked segment
		}
		if seg.Last < b[j] {
			steps += boolStep(single) // single: charge the rejecting test
			skipped++
			continue
		}
		if seg.First > b[len(b)-1] {
			steps += boolStep(single)
			skipped++
			break
		}
		var lo, hi int
		if single {
			// One segment: the header test above is the whole filter —
			// skip the narrowing gallops and intersect against all of b.
			// Like the plain fast path, a surviving test is not charged
			// (the intersection's first comparison inspects the same
			// boundaries), so tiny lists cost exactly what adaptive costs
			// and every skip is a strict step saving.
			lo, hi = j, len(b)
		} else {
			var s uint64
			lo, s = gallopGE(b, j, seg.First)
			steps += s
			hi, s = gallopGT(b, lo, seg.Last)
			steps += s
			if lo == hi {
				// The segment's range straddles b values without covering
				// any: payload stays undecoded.
				skipped++
				j = hi
				continue
			}
		}
		if seg.Kind == graph.SegBitmap { // O(1) probe per b element in range
			for _, y := range b[lo:hi] {
				if y > seg.Last {
					break
				}
				steps++
				if y < seg.First {
					continue
				}
				if seg.Contains(y) {
					emit(y)
				}
			}
		} else {
			scratch = scratch[:0]
			scratch, err = graph.DecodeSegment(seg, scratch)
			if err != nil {
				return steps, skipped, err
			}
			steps += adaptiveKernel{}.Intersect(scratch, b[lo:hi], emit)
		}
		j = hi
	}
	return steps, skipped, nil
}

// coverKernel rejects operand pairs whose value ranges do not overlap in
// O(1) — the range-cover pre-filter — and narrows surviving pairs to the
// covered range by galloping before intersecting adaptively. On oriented
// stores many (nm, Ev) pairs are disjoint (Ev spans one window vertex's
// edges; nm is a cone list that often lies entirely elsewhere), which is
// where the filter pays.
type coverKernel struct{}

func (coverKernel) Kind() KernelKind { return KernelCover }

//pdtl:hotpath
func (coverKernel) Intersect(a, b []graph.Vertex, emit func(graph.Vertex)) uint64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	steps := uint64(1) // cover test
	if a[len(a)-1] < b[0] || b[len(b)-1] < a[0] {
		return steps
	}
	aLo, s := gallopGE(a, 0, b[0])
	steps += s
	aHi, s := gallopGT(a, aLo, b[len(b)-1])
	steps += s
	bLo, s := gallopGE(b, 0, a[0])
	steps += s
	bHi, s := gallopGT(b, bLo, a[len(a)-1])
	steps += s
	if aLo < aHi && bLo < bHi {
		steps += adaptiveKernel{}.Intersect(a[aLo:aHi], b[bLo:bHi], emit)
	}
	return steps
}
