// Live (mutable) graphs: an LSM-style delta overlay on the immutable
// store (internal/live, DESIGN.md §11). A LiveGraph accepts batched edge
// insertions and deletions, serves exact counts over the merged
// base ⊕ delta view through the unchanged engine, keeps a bounded-memory
// streaming triangle estimate per batch, and compacts the delta into a
// fresh on-disk snapshot in the background.

package pdtl

import (
	"context"
	"time"

	"pdtl/internal/graph"
	"pdtl/internal/live"
)

// LiveOptions parameterize a live graph opened on a handle.
type LiveOptions struct {
	// Dir is the directory for compacted snapshots; empty means the
	// store's own directory.
	Dir string
	// CompactEdges triggers a background compaction when the pending delta
	// reaches this many edge mutations; non-positive disables the
	// automatic trigger (Compact still works).
	CompactEdges int
	// CompactAge triggers a compaction when the oldest pending mutation
	// exceeds this age (checked at mutation time); zero disables it.
	CompactAge time.Duration
	// StoreFormat is the on-disk format of compacted snapshots ("plain" or
	// "compressed"; empty means plain).
	StoreFormat string
	// MemEdges bounds the compaction build's sort memory; non-positive
	// selects the engine default.
	MemEdges int
	// Workers is the compaction parallelism; non-positive selects 1.
	Workers int
	// Reservoir is the streaming estimator's edge capacity; non-positive
	// selects the default (131072 edges).
	Reservoir int
	// Seed seeds the estimator deterministically.
	Seed int64
}

// LiveUpdate is one edge mutation: insert (U, V), or delete it when Del.
type LiveUpdate struct {
	U, V uint32
	Del  bool
}

// LiveStats mirrors the live layer's state snapshot.
type LiveStats = live.Stats

// LiveGraph is a mutable graph: the handle's oriented store plus an
// in-memory delta layer. Safe for concurrent use; queries run against
// immutable view snapshots and never block behind mutations or
// compaction.
type LiveGraph struct {
	h  *Graph
	lg *live.Graph
}

// Live wraps the handle's graph in a mutable delta overlay. The store is
// oriented first if it was not already (the usual one-time
// preprocessing); the store files themselves are never modified —
// mutations live in memory until a compaction writes a fresh snapshot
// next to them.
func (g *Graph) Live(ctx context.Context, opt LiveOptions) (*LiveGraph, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	format, err := graph.ParseFormat(opt.StoreFormat)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	d, orientedBase, _, err := g.ensureOriented(ctx, workers, format)
	if err != nil {
		return nil, err
	}
	lg, err := live.FromDisk(d, orientedBase, live.Config{
		Dir:          opt.Dir,
		Name:         g.info.Name,
		CompactEdges: opt.CompactEdges,
		CompactAge:   opt.CompactAge,
		StoreFormat:  format,
		MemEdges:     opt.MemEdges,
		Workers:      workers,
		Reservoir:    opt.Reservoir,
		Seed:         opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &LiveGraph{h: g, lg: lg}, nil
}

// OpenLive opens the store at base and wraps it in a live overlay in one
// step. Closing the LiveGraph closes the underlying handle too.
func OpenLive(ctx context.Context, base string, opt LiveOptions) (*LiveGraph, error) {
	g, err := Open(base)
	if err != nil {
		return nil, err
	}
	lg, err := g.Live(ctx, opt)
	if err != nil {
		g.Close()
		return nil, err
	}
	return lg, nil
}

// Apply applies a batch of edge mutations atomically: all of them, in
// order, or none (the error names the first invalid update). Inserting a
// present edge, deleting an absent one, and self-loops are invalid;
// inserts may create vertices beyond the current graph.
func (lg *LiveGraph) Apply(updates []LiveUpdate) error {
	batch := make([]live.Update, len(updates))
	for i, u := range updates {
		batch[i] = live.Update{U: graph.Vertex(u.U), V: graph.Vertex(u.V), Del: u.Del}
	}
	return lg.lg.ApplyBatch(batch)
}

// Count runs the exact engine over the current live view. The view is
// captured at call time: mutations landing mid-run do not perturb the
// result, and its Batches names the batches the view holds. The run is
// always the default source's cooperative windows, reading the view from
// memory: of opt only Workers, MemEdges and Kernel apply, and the result's
// ScanSource is "auto". Traced, it is one count span over plan and calc, as
// a Graph count is.
func (lg *LiveGraph) Count(ctx context.Context, opt Options) (res *Result, err error) {
	copt, err := opt.toCore()
	if err != nil {
		return nil, err
	}
	lg.h.runs.Add(1)
	ctx, end := beginCount(ctx)
	defer func() { end(res) }()
	cres, batches, err := lg.lg.Count(ctx, copt)
	if err != nil {
		return nil, err
	}
	res = resultFrom(cres)
	res.Batches = batches
	return res, nil
}

// Estimate returns the streaming triangle estimate and whether it is
// currently exact (the reservoir holds every live edge).
func (lg *LiveGraph) Estimate() (estimate float64, exact bool) { return lg.lg.Estimate() }

// Compact synchronously folds all pending delta into a fresh on-disk
// snapshot (waiting first for any background compaction in flight). A
// no-op when the delta is empty.
func (lg *LiveGraph) Compact(ctx context.Context) error { return lg.lg.CompactNow(ctx) }

// Stats snapshots the live layer's state (delta sizes, compaction
// generation, estimator).
func (lg *LiveGraph) Stats() LiveStats { return lg.lg.Stats() }

// Handle returns the underlying immutable-store handle.
func (lg *LiveGraph) Handle() *Graph { return lg.h }

// Close waits for any in-flight compaction and releases the live layer
// and its handle. The latest snapshot's files stay on disk.
func (lg *LiveGraph) Close() error {
	err := lg.lg.Close()
	if cerr := lg.h.Close(); err == nil {
		err = cerr
	}
	return err
}
