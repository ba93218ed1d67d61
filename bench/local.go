package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"pdtl"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
)

// importMemEdges is the in-memory edge budget cold-build gives the ingest
// pipeline: pdtl-gen from-bin's default, what a first-time user gets.
const importMemEdges = 1 << 22

// local is a set-up copy of one of the four single-process workloads. The
// three pre-oriented ones hold an open handle on an oriented store and run
// one handle method per op; cold-build holds only the edge file and builds
// everything inside the op.
type local struct {
	cfg  *runConfig
	in   inputGraph
	dir  string
	base string      // the oriented store (cold-build: the last op's)
	g    *pdtl.Graph // nil for cold-build
	opt  pdtl.Options
	reps int // ops so far; names per-op outputs

	// Artefacts of the most recent op, read by layers after the traced op.
	last     *pdtl.Result
	lastWall time.Duration // wall of the handle method alone
	lastTr   *obs.Trace
	openWall time.Duration // pdtl.Open at set-up (cold-build: in the op)
	// cold-build: the unoriented store the op built, and how long the ingest
	// took.
	imported   string
	importWall time.Duration
}

func newLocal(ctx context.Context, cfg *runConfig, man *manifest, dir string) (instance, error) {
	l := &local{cfg: cfg, in: man.Graphs[0], dir: dir, opt: pdtl.Options{Workers: cfg.P}}
	if cfg.Workload.Name == wColdBuild {
		return l, nil
	}
	l.base = filepath.Join(dir, "g.oriented")
	format, err := graph.ParseFormat(cfg.Workload.Graphs[0].Format)
	if err != nil {
		return nil, err
	}
	if _, err := orient.OrientFormat(l.in.Path, l.base, cfg.P, format); err != nil {
		return nil, fmt.Errorf("pre-orient: %w", err)
	}
	if n := cfg.Workload.PassesPerRunner; n > 0 {
		windows := uint64(n * cfg.P)
		l.opt.MemEdges = int((l.in.Edges + windows - 1) / windows)
	}
	start := time.Now()
	if l.g, err = pdtl.Open(l.base); err != nil {
		return nil, err
	}
	l.openWall = time.Since(start)
	return l, nil
}

func (l *local) pids() []int { return nil }

func (l *local) close() {
	if l.g != nil {
		l.g.Close()
	}
}

// spanned runs one call into a layer's public function under a bench span
// named name and returns its wall time. On the traced rep (rec non-nil) the
// call's context also carries a fresh program tracer, attached the way users
// attach one (obs.ContextWithCursor) — inside the bench span, so the
// tracer's own allocation is attributed to the call — and the program's
// spans are grafted under the bench span afterwards.
func spanned(ctx context.Context, rec *recorder, parent int, name string, fn func(context.Context) error) (time.Duration, *obs.Trace, error) {
	sp := rec.begin(name, parent)
	var tr *obs.Trace
	if rec != nil {
		tr = obs.NewTrace(0)
		ctx = obs.ContextWithCursor(ctx, obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
	}
	start := time.Now()
	err := fn(ctx)
	wall := time.Since(start)
	rec.end(sp)
	rec.graft(sp, tr)
	return wall, tr, err
}

func (l *local) op(ctx context.Context, rec *recorder, parent int) (opResult, error) {
	l.reps++
	switch l.cfg.Workload.Name {
	case wListInmem:
		return l.opList(ctx, rec, parent)
	case wColdBuild:
		return l.opColdBuild(ctx, rec, parent)
	}
	var err error
	l.lastWall, l.lastTr, err = spanned(ctx, rec, parent, "pdtl.Count", func(ctx context.Context) (err error) {
		l.last, err = l.g.Count(ctx, l.opt)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	return l.counted(l.last), nil
}

// counted turns a run's public result into the op's report: the store
// volume it says it read, and whether its count is baseline.Forward's.
func (l *local) counted(res *pdtl.Result) opResult {
	out := opResult{Attempted: 1, IOBytes: res.SourceBytesRead}
	for _, w := range res.Workers {
		out.IOBytes += w.BytesRead
	}
	if res.Triangles != l.in.Triangles {
		fmt.Fprintf(os.Stderr, "bench: %s: counted %d triangles, baseline says %d\n", l.cfg.Workload.Name, res.Triangles, l.in.Triangles)
		out.Failed = 1
	}
	return out
}

func (l *local) opList(ctx context.Context, rec *recorder, parent int) (opResult, error) {
	path := filepath.Join(l.dir, fmt.Sprintf("listing-%d.bin", l.reps))
	var err error
	l.lastWall, l.lastTr, err = spanned(ctx, rec, parent, "pdtl.ListFile", func(ctx context.Context) (err error) {
		l.last, err = l.g.ListFile(ctx, path, l.opt)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	out := l.counted(l.last)
	out.check = func() (int, error) {
		defer os.Remove(path)
		n, sum, err := sumListing(path)
		if err != nil {
			return 0, err
		}
		if n != l.in.Triangles || sum != l.in.ListSum {
			fmt.Fprintf(os.Stderr, "bench: list-inmem: listing has %d triangles sum %x, baseline %d sum %x\n", n, sum, l.in.Triangles, l.in.ListSum)
			if out.Failed == 0 {
				return 1, nil
			}
		}
		return 0, nil
	}
	return out, nil
}

// sumListing reads a listing file (12-byte little-endian triples) and
// returns its triangle count and order-independent checksum.
func sumListing(path string) (n, sum uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if fi.Size()%12 != 0 {
		return 0, 0, fmt.Errorf("listing %s is %d bytes, not a multiple of 12", path, fi.Size())
	}
	br := bufio.NewReaderSize(f, 1<<20)
	var rec [12]byte
	for {
		if _, err := io.ReadFull(br, rec[:]); err == io.EOF {
			return n, sum, nil
		} else if err != nil {
			return 0, 0, err
		}
		n++
		sum += triangleMix(binary.LittleEndian.Uint32(rec[0:]), binary.LittleEndian.Uint32(rec[4:]), binary.LittleEndian.Uint32(rec[8:]))
	}
}

// opColdBuild is what a first-time user pays: ingest the raw edge file,
// open the store, count (which orients and plans, nothing cached), close.
func (l *local) opColdBuild(ctx context.Context, rec *recorder, parent int) (opResult, error) {
	dir := filepath.Join(l.dir, fmt.Sprintf("build-%d", l.reps))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return opResult{}, err
	}
	store := filepath.Join(dir, "g")

	var err error
	l.importWall, _, err = spanned(ctx, rec, parent, "pdtl.ImportEdgeFileBinaryFormat", func(ctx context.Context) error {
		_, err := pdtl.ImportEdgeFileBinaryFormat(ctx, l.in.Path, store, "rmat", importMemEdges, "")
		return err
	})
	if err != nil {
		return opResult{}, fmt.Errorf("import: %w", err)
	}
	var g *pdtl.Graph
	l.openWall, _, err = spanned(ctx, rec, parent, "pdtl.Open", func(context.Context) (err error) {
		g, err = pdtl.Open(store)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	l.lastWall, l.lastTr, err = spanned(ctx, rec, parent, "pdtl.Count", func(ctx context.Context) (err error) {
		l.last, err = g.Count(ctx, l.opt)
		return err
	})
	if err != nil {
		g.Close()
		return opResult{}, err
	}
	if _, _, err = spanned(ctx, rec, parent, "pdtl.Close", func(context.Context) error { return g.Close() }); err != nil {
		return opResult{}, err
	}
	l.imported, l.base = store, l.last.OrientedBase
	out := l.counted(l.last)
	if rec == nil {
		// The traced op's stores stay for the layer probes; close removes
		// them with the rest of the run's directory.
		out.check = func() (int, error) { return 0, os.RemoveAll(dir) }
	}
	return out, nil
}
