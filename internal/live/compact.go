package live

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"pdtl/internal/extsort"
	"pdtl/internal/graph"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
)

// runCompaction rewrites base ⊕ frozen into a fresh on-disk snapshot and
// swaps it under the published view. It runs outside g.mu (queries and
// mutations proceed concurrently against the frozen view); only the final
// swap — a pointer exchange — takes the lock. On failure the frozen layer
// is folded back into the active one, so no mutations are lost.
//
// The snapshot is built with the same external-sort ingest pipeline a
// from-scratch load uses (extsort.BuildStoreFormat), which is
// deterministic in the edge set — a compacted store is byte-for-byte
// identical to one built from the merged edge list directly (the
// compaction equivalence tests pin this). Files are built under temporary
// ".building" names and renamed into place, so a half-finished compaction
// never masquerades as a snapshot.
func (g *Graph) runCompaction(ctx context.Context, base *baseSnap, frozen *delta) {
	cur := obs.CursorFrom(ctx)
	bsp := cur.Begin(obs.SpanBuild)
	snap, err := g.buildSnapshot(ctx, base, frozen)
	cur.SetAttr(bsp, "delta_edges", int64(frozen.edges()))
	cur.End(bsp)

	ssp := cur.Begin(obs.SpanSwap)
	defer cur.End(ssp)
	g.mu.Lock()
	defer g.mu.Unlock()
	old := g.cur
	if err != nil {
		// Fold the frozen layer back under whatever active mutations
		// arrived during the attempt; the delta keeps growing but nothing
		// is lost, and the next compaction retries everything.
		g.cur = &view{base: old.base, frozen: nil, active: compose(frozen, old.active)}
		g.lastCompactErr = err
	} else {
		g.cur = &view{base: snap, frozen: nil, active: old.active}
		g.compactions++
		if old.base.owned {
			// Nothing can read the retired snapshot after the swap: queries
			// hold views, and a view pins the whole base in memory — the
			// files are only the durable form. The user's original store
			// (gen 0) is never owned and never removed.
			removeFiles(old.base.files)
		}
	}
	g.compacting = false
	g.compactDone.Broadcast()
}

// buildSnapshot materializes base ⊕ frozen as a new oriented store on disk
// and returns it pinned.
func (g *Graph) buildSnapshot(ctx context.Context, base *baseSnap, frozen *delta) (*baseSnap, error) {
	m, err := buildMerged(base, frozen)
	if err != nil {
		return nil, err
	}
	gen := base.gen + 1
	dir := g.cfg.Dir
	if dir == "" {
		dir = filepath.Dir(base.base)
	}
	snapBase := filepath.Join(dir, fmt.Sprintf("%s.gen%d", g.cfg.Name, gen))

	// 1. Stream the merged oriented adjacency to an edge file. Each
	// oriented edge u→v is one undirected edge of the merged graph, so the
	// file is exactly the graph's edge list (in some order — the ingest
	// pipeline sorts).
	edgeFile := snapBase + ".edges"
	if err := writeMergedEdges(edgeFile, m); err != nil {
		return nil, err
	}
	defer os.Remove(edgeFile)

	// 2. Build the bidirectional store under a temp name, then rename into
	// place.
	building := snapBase + ".building"
	cleanup := func() {
		removeFiles(storeFiles(building, g.cfg.StoreFormat))
		removeFiles(storeFiles(snapBase, g.cfg.StoreFormat))
		removeFiles(storeFiles(snapBase+".oriented", g.cfg.StoreFormat))
		os.Remove(orient.InDegPath(snapBase + ".oriented"))
	}
	if err := extsort.BuildStoreFormat(ctx, edgeFile, building, g.cfg.Name, g.cfg.MemEdges, g.cfg.StoreFormat, nil); err != nil {
		cleanup()
		return nil, fmt.Errorf("live: compaction build: %w", err)
	}
	for _, f := range storeFiles(building, g.cfg.StoreFormat) {
		dst := snapBase + f[len(building):]
		if err := os.Rename(f, dst); err != nil {
			cleanup()
			return nil, fmt.Errorf("live: compaction rename: %w", err)
		}
	}

	// 3. Orient the snapshot (writes the .indeg file the balancer uses).
	orientedBase := snapBase + ".oriented"
	if _, err := orient.OrientFormat(snapBase, orientedBase, g.cfg.Workers, g.cfg.StoreFormat); err != nil {
		cleanup()
		return nil, fmt.Errorf("live: compaction orient: %w", err)
	}

	// 4. Pin the new snapshot.
	d, err := graph.Open(orientedBase)
	if err != nil {
		cleanup()
		return nil, err
	}
	files := append(storeFiles(snapBase, g.cfg.StoreFormat), storeFiles(orientedBase, g.cfg.StoreFormat)...)
	files = append(files, orient.InDegPath(orientedBase))
	snap, err := newBaseSnap(d, orientedBase, gen, true, files)
	if err != nil {
		cleanup()
		return nil, err
	}
	return snap, nil
}

// storeFiles lists the files of a store rooted at base in the given
// format.
func storeFiles(base string, format graph.Format) []string {
	files := []string{graph.MetaPath(base), graph.DegPath(base)}
	if format == graph.FormatCompressed {
		return append(files, graph.CAdjPath(base), graph.CIdxPath(base))
	}
	return append(files, graph.AdjPath(base))
}

func removeFiles(files []string) {
	for _, f := range files {
		os.Remove(f)
	}
}

// writeMergedEdges streams every oriented edge of the merged view to path
// as binary little-endian (u, v) records — the extsort ingest input
// format.
func writeMergedEdges(path string, m *merged) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec [extsort.EdgeBytes]byte
	scratch := make([]graph.Vertex, 0, m.disk.Meta.MaxOutDegree)
	n := m.numVertices()
	for u := 0; u < n; u++ {
		scratch = m.outList(scratch[:0], graph.Vertex(u))
		binary.LittleEndian.PutUint32(rec[0:], uint32(u))
		for _, v := range scratch {
			binary.LittleEndian.PutUint32(rec[4:], uint32(v))
			if _, err := bw.Write(rec[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
