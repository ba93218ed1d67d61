// Handle-based public API: a *Graph is a long-lived, reusable handle on one
// on-disk graph store. Open loads the store's metadata and degree index
// once; the first run orients the graph (if needed), and every later run on
// the same handle reuses the orientation — the amortized-preprocessing
// shape of PDTL §IV, where the oriented graph is built once and "can be
// reused if necessary". All run methods take a context.Context and abort
// cooperatively: every MGT runner checks it between cone blocks, and
// cluster nodes are told to abandon their calculation, so cancellation
// returns ctx.Err() promptly with no leaked goroutines or file handles. See
// DESIGN.md §6 for the lifecycle.

package pdtl

import (
	"context"
	"errors"
	"io"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
)

// ErrClosed is returned by every method of a closed Graph handle.
var ErrClosed = errors.New("pdtl: graph handle is closed")

// triangleBatch is how many triangles a Triangles runner hands its consumer
// at once (24 KiB): the hand-over between goroutines is paid per batch, not
// per triangle. Correctness never depends on it.
const triangleBatch = 2048

// ordEntry is one cached orientation: the opened oriented store and its base
// path.
type ordEntry struct {
	d    *graph.Disk
	base string
}

// Graph is an open handle on a graph store. It is safe for concurrent use;
// runs on the same handle share the cached orientation and degree index. A
// handle holds no open file descriptors between runs (the store's data
// files are opened per run), so Close only invalidates the handle.
type Graph struct {
	base string
	info GraphInfo

	mu     sync.Mutex
	closed bool
	// src is the store as opened; ords caches one orientation per requested
	// store format (empty until the first run orients — the one-time
	// preprocessing every later run reuses). An already-oriented input
	// short-circuits every format to src: the calculation phase is
	// format-agnostic, so the store is used in whatever encoding it is in.
	src          *graph.Disk
	preOriented  bool
	ords         map[graph.Format]ordEntry
	orientedBase string // first orientation's base, for OrientedBase()
	// orienting entries are non-nil (and closed on completion) while one
	// caller performs the orientation for that format. The work happens
	// outside mu, so Close, Info accessors, and concurrent runs stay
	// responsive during the potentially long reads, and waiters can still
	// honor their contexts.
	orienting map[graph.Format]chan struct{}

	// runs counts the engine calculations started on this handle (local
	// runs and distributed protocols alike, successful or not). It exists
	// for callers that memoize or single-flight runs — the query service's
	// tests assert "two concurrent identical requests cost exactly one
	// engine run" against this counter.
	runs atomic.Uint64
}

// Runs reports how many engine calculations (Count, List, Triangles,
// TriangleDegrees, CountDistributed, ...) have been started on this handle,
// including failed and cancelled ones. Cache layers above the handle use it
// to assert and account for the runs they avoided.
func (g *Graph) Runs() uint64 { return g.runs.Load() }

// Open opens the graph store at base (see WriteGraph and the
// Generate/Import helpers for creating stores) and returns a reusable
// handle. The metadata and degree index are read exactly once, here;
// orientation happens on the first run and is cached for the handle's
// lifetime.
func Open(base string) (*Graph, error) {
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	g := &Graph{
		base:      base,
		info:      infoFrom(d),
		src:       d,
		ords:      make(map[graph.Format]ordEntry),
		orienting: make(map[graph.Format]chan struct{}),
	}
	if d.Meta.Oriented {
		g.preOriented = true
		g.orientedBase = base
	}
	return g, nil
}

// Close invalidates the handle; subsequent runs fail with ErrClosed. Runs
// already in flight are not interrupted (cancel their contexts for that).
func (g *Graph) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	return nil
}

// Base reports the store path the handle was opened on.
func (g *Graph) Base() string { return g.base }

// Info reports the store's metadata and degree statistics, computed once at
// Open.
func (g *Graph) Info() GraphInfo { return g.info }

// OrientedBase reports the oriented store the handle's runs use, or "" if
// no run has oriented the graph yet.
func (g *Graph) OrientedBase() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.orientedBase
}

// ensureOriented returns the oriented store in the requested format,
// orienting the graph on first use of that format. An input that was already
// oriented satisfies every requested format as-is (the calculation phase is
// format-agnostic). The returned *orient.Result is non-nil exactly when this
// call performed the orientation — the run that triggered preprocessing is
// the one that reports its cost. Only one orientation per format runs at a
// time; it runs outside the handle mutex, and a concurrent run waiting for
// it returns ctx.Err() if its context fires first (the orientation itself is
// not interrupted — it completes and is cached for the next caller).
func (g *Graph) ensureOriented(ctx context.Context, workers int, format graph.Format) (*graph.Disk, string, *orient.Result, error) {
	if format == "" {
		format = graph.FormatPlain
	}
	for {
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			return nil, "", nil, ErrClosed
		}
		if g.preOriented {
			d := g.src
			g.mu.Unlock()
			return d, g.base, nil, nil
		}
		if e, ok := g.ords[format]; ok {
			g.mu.Unlock()
			return e.d, e.base, nil, nil
		}
		if err := ctx.Err(); err != nil {
			g.mu.Unlock()
			return nil, "", nil, err
		}
		if wait := g.orienting[format]; wait != nil {
			// Another run is orienting this format; wait for it (or our
			// context) and re-check.
			g.mu.Unlock()
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, "", nil, ctx.Err()
			}
			continue
		}
		done := make(chan struct{})
		g.orienting[format] = done
		g.mu.Unlock()

		orientedBase := g.base + ".oriented"
		if format != graph.FormatPlain {
			orientedBase = g.base + ".oriented-" + string(format)
		}
		ores, err := orient.OrientFormat(g.base, orientedBase, workers, format)
		var d *graph.Disk
		if err == nil {
			d, err = graph.Open(orientedBase)
		}
		g.mu.Lock()
		delete(g.orienting, format)
		if err == nil {
			g.ords[format] = ordEntry{d: d, base: orientedBase}
			if g.orientedBase == "" {
				g.orientedBase = orientedBase
			}
		}
		g.mu.Unlock()
		close(done)
		if err != nil {
			return nil, "", nil, err
		}
		return d, orientedBase, ores, nil
	}
}

// execute runs one calculation on the handle with options resolved by
// toCore, their Sinks or Out set to where the triangles go (neither: a
// count): ensure orientation (cached), then the engine (core.Execute) —
// cooperative windows over the whole store by default, or, under a named
// scan source, the paper's layout: one runner per range of the
// load-balance plan.
func (g *Graph) execute(ctx context.Context, copt core.Options) (res *Result, err error) {
	g.runs.Add(1)
	start := time.Now()
	ctx, end := beginCount(ctx)
	defer func() { end(res) }()
	cur := obs.CursorFrom(ctx)
	osp := cur.Begin(obs.SpanOrient)
	d, _, ores, err := g.ensureOriented(ctx, copt.Workers, copt.Store)
	cur.End(osp)
	if err != nil {
		return nil, err
	}
	cres, err := core.Execute(ctx, d, copt)
	if err != nil {
		return nil, err
	}
	res = resultFrom(cres)
	res.MaxOutDegree = d.Meta.MaxOutDegree
	if ores != nil {
		res.OrientTime = ores.Duration
		res.MaxOutDegree = ores.MaxOutDegree
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// beginCount opens a run's count span under ctx's cursor (the CLI's -trace,
// the service's ?trace=1) and returns the context the run's phases trace
// under — orient, plan and calc, the engine's runners hanging their chunk
// spans under calc — and the function that closes the span, noting the
// run's workers.
func beginCount(ctx context.Context) (context.Context, func(*Result)) {
	if ctx == nil {
		ctx = context.Background()
	}
	cur := obs.CursorFrom(ctx)
	sp := cur.Begin(obs.SpanCount)
	if cur.T != nil {
		ctx = obs.ContextWithCursor(ctx, cur.Child(sp))
	}
	return ctx, func(res *Result) {
		if res != nil {
			cur.SetAttr(sp, "workers", int64(len(res.Workers)))
		}
		cur.End(sp)
	}
}

// run resolves opt and executes it with the triangles going where to puts
// them (nil: a count); to sees the resolved options, so it knows the worker
// count, one sink each.
func (g *Graph) run(ctx context.Context, opt Options, to func(*core.Options)) (*Result, error) {
	copt, err := opt.toCore()
	if err != nil {
		return nil, err
	}
	if to != nil {
		to(&copt)
	}
	return g.execute(ctx, copt)
}

// Count counts the graph's triangles. The first call orients the graph (if
// the store was unoriented); later calls with any options reuse the
// orientation and go straight to planning and the calculation phase.
func (g *Graph) Count(ctx context.Context, opt Options) (*Result, error) {
	return g.run(ctx, opt, nil)
}

// List streams every triangle to w as little-endian uint32 triples (12
// bytes per triangle), in an order that depends on the options but not on
// timing — by default not even on Workers, at equal Workers·MemEdges; use
// ReadTriangleFile (or mgt.ReadTriangles) to decode. The triangles reach w
// block by block, in that order, as the workers finish them: a worker ahead
// of the output holds what it lists in a bounded amount of memory, and
// waits for the output when that is full (mgt.Listing). List creates no
// file.
func (g *Graph) List(ctx context.Context, w io.Writer, opt Options) (*Result, error) {
	return g.run(ctx, opt, func(o *core.Options) { o.Out = w })
}

// ListFile writes the listing to outPath atomically: the output goes to a
// temp file beside outPath — the only file the run creates — which is
// renamed into place only on success (graph.CreateTemp) — a failed or
// cancelled run never truncates or disturbs an existing file at outPath.
// The final file gets os.Create's permissions (0666 clipped by the umask).
// outPath may be absent, a regular file, or a symlink, in which case the
// file it resolves to is the one replaced and the link stays; anything else
// — a FIFO, a device — is refused before the run starts, as a rename would
// replace it (graph.PublishTarget).
func (g *Graph) ListFile(ctx context.Context, outPath string, opt Options) (*Result, error) {
	target, err := graph.PublishTarget(outPath)
	if err != nil {
		return nil, err
	}
	out, err := graph.CreateTemp(target)
	if err != nil {
		return nil, err
	}
	res, err := g.run(ctx, opt, func(o *core.Options) { o.Out = out })
	if err != nil {
		graph.Discard(out)
		return nil, err
	}
	if err := graph.Publish(out, target); err != nil {
		return nil, err
	}
	return res, nil
}

// Triangles returns a single-use iterator over every triangle (u, v, w)
// with u ≺ v ≺ w, plus a function to call after iteration (like
// bufio.Scanner.Err) that reports the run's Result and error. Breaking out
// of the loop early cancels the underlying run: the runners abort within
// one memory window and every goroutine and file handle is torn down
// before the loop statement completes. A break is not an error, but a
// broken-off run has no Result; a cancelled ctx or a failed run is an
// error, and surfaces through the returned function.
//
// The order is unspecified across workers: each runner hands its triangles
// over triangleBatch at a time, so the consumer sees one runner's triangles
// in runs of that length, interleaved with the other runners' runs.
func (g *Graph) Triangles(ctx context.Context, opt Options) (iter.Seq[[3]uint32], func() (*Result, error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	var runRes *Result
	var runErr error
	seq := func(yield func([3]uint32) bool) {
		runRes, runErr = nil, nil
		copt, err := opt.toCore()
		if err != nil {
			runErr = err
			return
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		// 2·P+2 batches circulate: one filling in each runner, the rest
		// queued for or held by the consumer. full can hold them all, so a
		// send never waits; a runner whose consumer lags waits on free.
		nbuf := 2*copt.Workers + 2
		free := make(chan [][3]uint32, nbuf)
		full := make(chan [][3]uint32, nbuf)
		for range nbuf {
			free <- nil // allocated on first use
		}
		batchers := make([]*triangleBatcher, copt.Workers)
		copt.Sinks = make([]mgt.Sink, copt.Workers)
		for i := range copt.Sinks {
			b := &triangleBatcher{done: runCtx.Done(), free: free, full: full}
			batchers[i], copt.Sinks[i] = b, b
		}
		done := make(chan error, 1)
		go func() {
			res, err := g.execute(runCtx, copt)
			if err == nil {
				// The runners are done with their batchers: hand over
				// what each has left.
				for _, b := range batchers {
					if len(b.buf) > 0 {
						b.send()
					}
				}
				runRes = res
			}
			close(full)
			done <- err
		}()
		broke := false
	consume:
		for b := range full {
			for _, t := range b {
				if !yield(t) {
					broke = true
					cancel()
					break consume
				}
			}
			free <- b[:0]
		}
		if broke {
			// Wait for the producer to close full, dropping what it
			// still queues.
			for range full {
			}
		}
		err = <-done
		if broke && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// The teardown we triggered, not a failure.
			err = nil
		}
		runErr = err
	}
	return seq, func() (*Result, error) { return runRes, runErr }
}

// triangleBatcher is one runner's sink in a Triangles stream: it fills a
// batch taken from free and queues it on full once it holds triangleBatch
// triangles. Sink i of a run is only ever called by runner i, one call
// after another (mgt.RunDealt's and core.RunRanges' runners each own their
// sink), so buf needs no lock. Every wait also selects on done: a torn-down
// run drops what it still finds.
type triangleBatcher struct {
	done       <-chan struct{}
	free, full chan [][3]uint32
	buf        [][3]uint32
}

// Triangles implements mgt.Sink: the batch is appended whole, across as
// many stream batches as it fills.
func (b *triangleBatcher) Triangles(u, v uint32, ws []uint32) {
	for len(ws) > 0 {
		if b.buf == nil {
			select {
			case b.buf = <-b.free:
			case <-b.done:
				return
			}
			if b.buf == nil {
				b.buf = make([][3]uint32, 0, triangleBatch)
			}
		}
		k := min(len(ws), triangleBatch-len(b.buf))
		for _, w := range ws[:k] {
			b.buf = append(b.buf, [3]uint32{u, v, w})
		}
		ws = ws[k:]
		if len(b.buf) == triangleBatch {
			b.send()
		}
	}
}

// send queues the batch for the consumer.
func (b *triangleBatcher) send() {
	select {
	case b.full <- b.buf:
		b.buf = nil
	case <-b.done:
		b.buf = b.buf[:0]
	}
}

// maxShardEntries caps the total uint64 counters TriangleDegrees allocates
// across its per-worker shards (1<<27 entries = 1 GiB). Past the cap the
// workers share one array with atomic adds instead — still lock-free,
// bounded at n counters regardless of worker count.
const maxShardEntries = 1 << 27

// TriangleDegrees returns, for every vertex, the number of triangles it
// participates in — the per-vertex quantity behind local clustering
// coefficients. Each worker's sink accumulates into a private count shard
// merged once after the run, so the hot path takes no lock; when
// workers × n counters would exceed maxShardEntries, the sinks share a
// single array with atomic adds instead, trading some cache-line contention
// for bounded memory on huge graphs.
func (g *Graph) TriangleDegrees(ctx context.Context, opt Options) ([]uint64, *Result, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, nil, ErrClosed
	}
	n := g.src.NumVertices()
	g.mu.Unlock()

	var counts []uint64
	var shards [][]uint64
	res, err := g.run(ctx, opt, func(o *core.Options) {
		o.Sinks = make([]mgt.Sink, o.Workers)
		if uint64(n)*uint64(o.Workers) > maxShardEntries {
			counts = make([]uint64, n)
			for i := range o.Sinks {
				o.Sinks[i] = mgt.FuncSink(func(u, v, w uint32) {
					atomic.AddUint64(&counts[u], 1)
					atomic.AddUint64(&counts[v], 1)
					atomic.AddUint64(&counts[w], 1)
				})
			}
			return
		}
		shards = make([][]uint64, o.Workers)
		for i := range o.Sinks {
			shard := make([]uint64, n)
			shards[i] = shard
			o.Sinks[i] = mgt.FuncSink(func(u, v, w uint32) {
				shard[u]++
				shard[v]++
				shard[w]++
			})
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if shards != nil {
		counts = shards[0]
		for _, shard := range shards[1:] {
			for v, c := range shard {
				counts[v] += c
			}
		}
	}
	return counts, res, nil
}

// infoFrom computes a store's GraphInfo from its opened metadata and degree
// index.
func infoFrom(d *graph.Disk) GraphInfo {
	info := GraphInfo{
		Name:         d.Meta.Name,
		NumVertices:  d.NumVertices(),
		NumEdges:     d.Meta.NumEdges,
		MaxDegree:    d.Meta.MaxDegree,
		Oriented:     d.Meta.Oriented,
		MaxOutDegree: d.Meta.MaxOutDegree,
		Ranked:       d.Meta.Ranked,
	}
	if n := float64(info.NumVertices); n > 0 {
		var sum, sumSq float64
		for _, deg := range d.Degrees {
			df := float64(deg)
			sum += df
			sumSq += df * df
		}
		info.AvgDegree = sum / n
		variance := sumSq/n - info.AvgDegree*info.AvgDegree
		if variance > 0 {
			info.StdDegree = sqrt(variance)
		}
	}
	return info
}
