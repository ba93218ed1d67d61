// Package obs is PDTL's observability substrate: run traces and
// Prometheus-native metrics, both dependency-free and allocation-free on
// the engine's chunk hot path.
//
// A Trace is a fixed-capacity slab of hierarchical phase spans (handle
// open/orient/plan, per-round window load and scan, per-chunk runner execution,
// cluster copy/dispatch, live compaction). Span recording is three atomic
// operations and never allocates: Begin claims the next slab slot, End
// stamps the duration, SetAttr fills a fixed-size attribute array. When
// the slab is full, further spans are silently dropped (and counted) —
// a trace is diagnostic, never load-bearing.
//
// Traces cross the cluster wire as []WireSpan (worker-local parent
// indices), re-parented under the master's dispatch span by Merge, and
// serialize as Chrome trace_event JSON (chrome://tracing, Perfetto) via
// WriteJSON. DESIGN.md §13 describes the span model and naming
// conventions.
package obs

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// SpanID indexes a span within its Trace's slab. NoSpan (negative) is the
// absent span: every Trace method accepts it (and a nil *Trace) as a
// no-op, so call sites need no tracing-enabled branches.
type SpanID int32

// NoSpan is the nil span id: a valid parent (meaning "root") and a valid
// no-op target for End/SetAttr.
const NoSpan SpanID = -1

// MaxAttrs is the per-span attribute capacity. Attributes past it are
// dropped; six covers the fullest engine site (a chunk span's range
// bounds plus four counter deltas).
const MaxAttrs = 6

// Span names used across the engine, cluster, and service layers. Tests
// and the trace linter grep for these, so they are constants rather than
// ad-hoc literals.
const (
	SpanCount     = "count"          // one whole run (handle open → result)
	SpanOrient    = "orient"         // orientation preprocessing
	SpanPlan      = "plan"           // load-balance planning
	SpanCalc      = "calc"           // the calculation phase (all runners)
	SpanWorker    = "worker"         // one pool runner's lifetime
	SpanChunk     = "chunk"          // one runner×range execution (hot path)
	SpanScanRound = "scan.round"     // one window loaded and the store scanned against it
	SpanAssemble  = "assemble"       // an ordered listing's close: every block checked written
	SpanCluster   = "cluster"        // one distributed run (master side)
	SpanCopy      = "copy"           // replica copy to one node
	SpanDispatch  = "dispatch"       // one Count RPC (static) or batch (stealing)
	SpanNodeCount = "node.count"     // a worker node's calculation phase
	SpanFreeze    = "compact.freeze" // live: delta layer freeze
	SpanBuild     = "compact.build"  // live: snapshot build
	SpanSwap      = "compact.swap"   // live: snapshot swap
)

// Attr is one integer-valued span attribute.
type Attr struct {
	Key string
	Val int64
}

// Span is one recorded phase: a named [Start, Start+Dur) interval with a
// parent, an optional worker index, and up to MaxAttrs counters.
type Span struct {
	// Parent is the enclosing span's id, or NoSpan for a root.
	Parent SpanID
	// Worker is the pool runner index the span ran on, or -1.
	Worker int32
	// NAttr is how many of Attrs are set.
	NAttr int32
	// Name is the span's phase name (one of the Span* constants).
	Name string
	// Start is the span's wall-clock start, unix nanoseconds.
	Start int64
	// Dur is the span's duration in nanoseconds (0 until End).
	Dur int64
	// Attrs holds the span's counters (range bounds, stat deltas).
	Attrs [MaxAttrs]Attr
}

// DefaultTraceSpans is the slab capacity NewTrace(0) selects: generous for
// a run's phase/chunk spans (a 16-worker stealing run records ~P·K chunk
// spans plus a handful of phases) while bounding a trace to ~2 MiB.
const DefaultTraceSpans = 1 << 14

// Trace is a fixed-capacity span slab shared by every goroutine of one
// run. All methods are safe for concurrent use and safe on a nil
// receiver; reading the recorded spans (Spans, Export, WriteJSON) is only
// consistent after the spans' writers have finished (which every engine
// entry point guarantees by construction: results and traces are read
// after the worker pool joins).
type Trace struct {
	spans   []Span
	next    atomic.Int32
	dropped atomic.Int64
}

// NewTrace creates a trace holding up to capacity spans (non-positive
// selects DefaultTraceSpans). The slab is allocated up front; recording
// never allocates.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceSpans
	}
	return &Trace{spans: make([]Span, capacity)}
}

// Begin starts a span under parent and returns its id. On a nil trace or
// a full slab it returns NoSpan (dropped spans are counted).
//
//pdtl:hotpath
func (t *Trace) Begin(name string, parent SpanID) SpanID {
	if t == nil {
		return NoSpan
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return NoSpan
	}
	sp := &t.spans[i]
	sp.Parent = parent
	sp.Worker = -1
	sp.NAttr = 0
	sp.Name = name
	sp.Start = time.Now().UnixNano()
	sp.Dur = 0
	return SpanID(i)
}

// End stamps the span's duration. No-op for NoSpan or a nil trace.
//
//pdtl:hotpath
func (t *Trace) End(id SpanID) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	sp.Dur = time.Now().UnixNano() - sp.Start
}

// SetAttr attaches one integer attribute to the span (dropped past
// MaxAttrs). No-op for NoSpan or a nil trace.
//
//pdtl:hotpath
func (t *Trace) SetAttr(id SpanID, key string, val int64) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	if int(sp.NAttr) < MaxAttrs {
		sp.Attrs[sp.NAttr] = Attr{Key: key, Val: val}
		sp.NAttr++
	}
}

// SetWorker stamps the pool runner index the span ran on.
//
//pdtl:hotpath
func (t *Trace) SetWorker(id SpanID, worker int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].Worker = int32(worker)
}

// Spans returns the recorded spans (the used slab prefix). The slice
// aliases the slab; callers must not retain it across further recording.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// Dropped reports how many spans were discarded against a full slab.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// WireSpan is a span in wire form: parents are indices into the carrying
// slice (-1 = root), so a worker's whole trace travels as one
// position-independent block that Merge can graft under any master span.
// All fields are exported for encoding/gob.
type WireSpan struct {
	Parent int32
	Worker int32
	NAttr  int32
	Name   string
	Start  int64
	Dur    int64
	Attrs  [MaxAttrs]Attr
}

// Export snapshots the trace as wire spans. Span ids are slab indices, so
// parents translate positionally.
func (t *Trace) Export() []WireSpan {
	spans := t.Spans()
	if len(spans) == 0 {
		return nil
	}
	out := make([]WireSpan, len(spans))
	for i, sp := range spans {
		out[i] = WireSpan{
			Parent: int32(sp.Parent),
			Worker: sp.Worker,
			NAttr:  sp.NAttr,
			Name:   sp.Name,
			Start:  sp.Start,
			Dur:    sp.Dur,
			Attrs:  sp.Attrs,
		}
	}
	return out
}

// Merge grafts an exported trace into this one: root wire spans (Parent
// < 0) are re-parented under parent, non-roots keep their relative
// structure. Spans that do not fit the slab are dropped (a wire span's
// parent always precedes it, so retained spans never reference dropped
// ones).
func (t *Trace) Merge(parent SpanID, spans []WireSpan) {
	if t == nil || len(spans) == 0 {
		return
	}
	n := int32(len(spans))
	base := t.next.Add(n) - n
	for i, ws := range spans {
		idx := int(base) + i
		if idx >= len(t.spans) {
			t.dropped.Add(int64(len(spans) - i))
			return
		}
		p := parent
		if ws.Parent >= 0 {
			p = SpanID(base + ws.Parent)
		}
		t.spans[idx] = Span{
			Parent: p,
			Worker: ws.Worker,
			NAttr:  ws.NAttr,
			Name:   ws.Name,
			Start:  ws.Start,
			Dur:    ws.Dur,
			Attrs:  ws.Attrs,
		}
	}
}

// WriteJSON serializes the trace in Chrome trace_event format (the JSON
// object form, loadable in chrome://tracing and Perfetto). Each span is
// one complete ("ph":"X") event; timestamps are microseconds relative to
// the earliest span; tid is the worker index + 1 (0 = coordinator
// spans); span id, parent id, and attributes ride in args.
func (t *Trace) WriteJSON(w io.Writer) error {
	spans := t.Spans()
	var min int64
	for i, sp := range spans {
		if i == 0 || sp.Start < min {
			min = sp.Start
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, sp := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d`,
			sp.Name, sp.Worker+1, float64(sp.Start-min)/1e3, float64(sp.Dur)/1e3, i, sp.Parent)
		for _, a := range sp.Attrs[:sp.NAttr] {
			fmt.Fprintf(bw, `,%q:%d`, a.Key, a.Val)
		}
		bw.WriteString("}}")
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// Cursor is a trace position carried through a context: the trace, the
// span new work should nest under, and the pool runner index (-1 when not
// inside a runner). The zero-ish cursor (nil trace) is valid — every
// method is a no-op — so code below an untraced entry point pays only a
// context lookup.
type Cursor struct {
	T      *Trace
	Span   SpanID
	Worker int32
}

type cursorKey struct{}

// ContextWithCursor returns a context carrying c. Called once per phase
// or per pool runner, never per chunk (it allocates; CursorFrom does
// not).
func ContextWithCursor(ctx context.Context, c Cursor) context.Context {
	return context.WithValue(ctx, cursorKey{}, &c)
}

// CursorFrom extracts the cursor, or a no-op cursor when absent. It is
// allocation-free and safe to call on every chunk.
//
//pdtl:hotpath
func CursorFrom(ctx context.Context) Cursor {
	if v := ctx.Value(cursorKey{}); v != nil {
		return *v.(*Cursor)
	}
	return Cursor{Span: NoSpan, Worker: -1}
}

// Begin starts a span at the cursor's position, stamped with its worker.
//
//pdtl:hotpath
func (c Cursor) Begin(name string) SpanID {
	id := c.T.Begin(name, c.Span)
	if id >= 0 && c.Worker >= 0 {
		c.T.SetWorker(id, int(c.Worker))
	}
	return id
}

// End stamps the span's duration.
//
//pdtl:hotpath
func (c Cursor) End(id SpanID) { c.T.End(id) }

// SetAttr attaches one attribute to the span.
//
//pdtl:hotpath
func (c Cursor) SetAttr(id SpanID, key string, val int64) { c.T.SetAttr(id, key, val) }

// Child returns a cursor whose new spans nest under id.
func (c Cursor) Child(id SpanID) Cursor {
	if id < 0 {
		return c
	}
	return Cursor{T: c.T, Span: id, Worker: c.Worker}
}

// WithWorker returns a cursor stamping the given runner index.
func (c Cursor) WithWorker(worker int) Cursor {
	c.Worker = int32(worker)
	return c
}
