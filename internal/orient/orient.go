// Package orient implements the degree-based orientation step of PDTL
// (Definition III.2 and Section IV-B of the paper).
//
// The degree-based order ≺ on V is: u ≺ v iff d(u) < d(v), or d(u) = d(v)
// and u < v. The orientation G* of G keeps edge (u, v) iff u ≺ v, turning
// every triangle {u ≺ v ≺ w} into the unique tuple (u, v, w) with cone
// vertex u and pivot edge (v, w).
//
// Orientation is the only preprocessing PDTL needs, and the paper
// parallelizes it (Figure 2, Table IX): the master reads the entire degree
// array into memory (assumed to fit, Section IV-A2), cuts the adjacency
// file into P contiguous vertex spans, filters each span concurrently into
// a spill file, and concatenates the spills.
//
// The store it writes is in rank space: vertices are renumbered by ≺
// counting down, id = n−1−rank, so the hubs get the smallest ids and every
// out-neighbour of a vertex has a smaller id than the vertex itself. A
// window of the lists of [vlow, vhigh] can then only be reached from the
// lists of vertices above vlow, which is what lets a scan round skip the
// store below its window (DESIGN.md §5). The spans map and sort their kept
// lists into the new ids as they filter, and the spills are written back in
// rank order, a bounded buffer at a time; <base>.perm maps every id back to
// the vertex's original one. The oriented edge set is the id-space one: only
// the names of the vertices and the order of the lists change, and every
// list remains sorted by (new) id — the property the modified MGT's array
// intersections rely on.
package orient

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sync"
	"time"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// Less reports u ≺ v under the degree-based order for the given degree
// array.
func Less(deg []uint32, u, v graph.Vertex) bool {
	if deg[u] != deg[v] {
		return deg[u] < deg[v]
	}
	return u < v
}

// Result summarizes an orientation run.
type Result struct {
	// Base is the output store's base path.
	Base string
	// MaxOutDegree is d*max, the maximum out-degree of G*; MGT's nm/nmp
	// scratch arrays are sized by it and the small-degree assumption
	// compares it against the memory budget.
	MaxOutDegree uint32
	// OutDegrees is d_G*(v) for every v, indexed by the store's (ranked)
	// ids. The in-degrees, d_G(v) − d_G*(v), are written to the store's
	// .indeg file (LoadInDegrees).
	OutDegrees []uint32
	// Workers is the parallelism used.
	Workers int
	// Duration is the wall time of the orientation.
	Duration time.Duration
	// IO is the I/O activity charged during orientation.
	IO ioacct.Stats
}

// Orient reads the undirected store rooted at src and writes its orientation
// to a new plain-format store rooted at dst, using the given number of
// parallel workers (minimum 1). The input must be an unoriented store.
func Orient(src, dst string, workers int) (*Result, error) {
	return OrientFormat(src, dst, workers, graph.FormatPlain)
}

// OrientFormat is Orient with a chosen output store format. The parallel
// span structure is identical either way; a compressed output encodes each
// span's filtered lists into delta-varint/bitmap segments in the spill
// files (recording per-vertex encoded lengths), so writing them back needs
// only the .cidx index on top — the full oriented store is never held in
// memory in either format, only writeBackBytes of it at a time. The input
// store may itself be in either format: spans read it through the
// format-agnostic scanner.
func OrientFormat(src, dst string, workers int, format graph.Format) (*Result, error) {
	start := time.Now()
	if workers < 1 {
		workers = 1
	}
	d, err := graph.Open(src)
	if err != nil {
		return nil, err
	}
	if d.Meta.Oriented {
		return nil, fmt.Errorf("orient: %s is already oriented", src)
	}
	n := d.NumVertices()
	counter := ioacct.NewCounter(0)
	ids, perm := rank(d.Degrees)
	outDeg := make([]uint32, n)   // by original id
	outBytes := make([]uint32, n) // each kept list's bytes in its spill, by original id

	spans := vertexSpans(d, workers)
	spills := make([]string, len(spans))
	defer cleanup(spills)
	errs := make([]error, len(spans))
	var wg sync.WaitGroup
	for i, span := range spans {
		spills[i] = fmt.Sprintf("%s.spill%d", dst, i)
		wg.Add(1)
		go func(i int, span [2]graph.Vertex) {
			defer wg.Done()
			errs[i] = orientSpan(d, span[0], span[1], spills[i], ids, outDeg, outBytes, format, counter)
		}(i, span)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := writeBack(dst, spans, spills, ids, perm, outBytes, format, counter); err != nil {
		return nil, err
	}

	var dstMax uint32
	var outEntries uint64
	rankedOut := make([]uint32, n)
	inDeg := make([]uint32, n)
	for x, v := range perm {
		rankedOut[x] = outDeg[v]
		inDeg[x] = d.Degrees[v] - outDeg[v]
		dstMax = max(dstMax, outDeg[v])
		outEntries += uint64(outDeg[v])
	}
	if outEntries != d.Meta.NumEdges {
		return nil, fmt.Errorf("orient: produced %d oriented edges, want %d", outEntries, d.Meta.NumEdges)
	}
	if err := graph.WriteUint32s(graph.DegPath(dst), rankedOut, counter); err != nil {
		return nil, err
	}
	// The in-degree file feeds the load balancer (Section IV-B); persisting
	// it lets an engine rebalance an oriented store without re-reading G.
	if err := graph.WriteUint32s(InDegPath(dst), inDeg, counter); err != nil {
		return nil, err
	}
	if err := graph.WriteUint32s(graph.PermPath(dst), perm, counter); err != nil {
		return nil, err
	}
	meta := d.Meta
	meta.Oriented = true
	meta.Ranked = true
	meta.AdjEntries = outEntries
	meta.MaxOutDegree = dstMax
	meta.Format = ""
	if format == graph.FormatCompressed {
		meta.Format = graph.FormatCompressed
	}
	if err := graph.WriteMeta(dst, meta); err != nil {
		return nil, err
	}
	return &Result{
		Base:         dst,
		MaxOutDegree: dstMax,
		OutDegrees:   rankedOut,
		Workers:      workers,
		Duration:     time.Since(start),
		IO:           counter.Snapshot(),
	}, nil
}

// rank numbers the vertices by ≺ counting down. A counting sort on degree —
// stable, so equal degrees keep id order, which is ≺ — gives every vertex
// its rank r, and its new id is n−1−r: ids[v] is v's new id, perm[x] the
// original id of new vertex x.
func rank(deg []uint32) (ids, perm []graph.Vertex) {
	n := len(deg)
	var maxDeg uint32
	for _, dg := range deg {
		maxDeg = max(maxDeg, dg)
	}
	next := make([]int, int(maxDeg)+2) // next[dg]: the next rank of degree dg
	for _, dg := range deg {
		next[dg+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	ids, perm = make([]graph.Vertex, n), make([]graph.Vertex, n)
	for v, dg := range deg {
		x := graph.Vertex(n - 1 - next[dg])
		next[dg]++
		ids[v], perm[x] = x, graph.Vertex(v)
	}
	return ids, perm
}

// vertexSpans cuts [0, n) into at most `workers` contiguous vertex spans of
// approximately equal adjacency-entry volume.
func vertexSpans(d *graph.Disk, workers int) [][2]graph.Vertex {
	n := d.NumVertices()
	total := d.Meta.AdjEntries
	if n == 0 {
		return [][2]graph.Vertex{{0, 0}}
	}
	if uint64(workers) > total {
		if total == 0 {
			workers = 1
		} else {
			workers = int(total)
		}
	}
	spans := make([][2]graph.Vertex, 0, workers)
	var v graph.Vertex
	for i := 0; i < workers; i++ {
		target := total * uint64(i+1) / uint64(workers)
		end := v
		for int(end) < n && d.Offsets[end+1] <= target {
			end++
		}
		if i == workers-1 {
			end = graph.Vertex(n)
		}
		if end > v || i == 0 {
			spans = append(spans, [2]graph.Vertex{v, end})
			v = end
		}
	}
	if int(v) < n {
		spans[len(spans)-1][1] = graph.Vertex(n)
	}
	return spans
}

// orientSpan filters the adjacency lists of vertices [lo, hi) through the
// degree-based order into a spill file, in new ids: u keeps v iff u ≺ v,
// which in rank space is ids[v] < ids[u], and the kept ids are sorted. It
// records out-degrees and each kept list's bytes in the spill: raw
// little-endian entries for a plain output, the segment encoding for a
// compressed one.
func orientSpan(d *graph.Disk, lo, hi graph.Vertex, spill string, ids []graph.Vertex, outDeg, outBytes []uint32, format graph.Format, c *ioacct.Counter) error {
	out, err := os.Create(spill)
	if err != nil {
		return err
	}
	defer out.Close()
	bw := bufio.NewWriterSize(ioacct.NewWriter(out, c), 1<<20)

	sc, err := d.NewScannerAt(lo, c, 1<<20)
	if err != nil {
		return err
	}
	defer sc.Close()

	var enc graph.ListEncoder
	var kept, scratch []graph.Vertex
	var buf []byte
	for {
		u, list, ok := sc.Next()
		if !ok || u >= hi {
			break
		}
		x := ids[u]
		kept = kept[:0]
		for _, v := range list {
			if y := ids[v]; y < x {
				kept = append(kept, y)
			}
		}
		if len(kept) < radixMin {
			slices.Sort(kept)
		} else {
			scratch = slices.Grow(scratch[:0], len(kept))[:len(kept)]
			kept, scratch = radixSort(kept, scratch, x)
		}
		if format == graph.FormatCompressed {
			buf = enc.Append(buf[:0], kept)
		} else {
			buf = buf[:0]
			for _, y := range kept {
				buf = binary.LittleEndian.AppendUint32(buf, y)
			}
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		outDeg[u] = uint32(len(kept))
		outBytes[u] = uint32(len(buf))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// radixMin is the shortest kept list radixSort sorts; a shorter one goes to
// slices.Sort, which beats passes over 256 counters on a few dozen ids.
const radixMin = 32

// radixSort sorts a, whose ids are all below bound, by an LSD radix sort on
// bytes — only as many as bound spans — through tmp (as long as a). It
// returns the sorted slice and the other one: the two may trade places.
func radixSort(a, tmp []graph.Vertex, bound graph.Vertex) (sorted, other []graph.Vertex) {
	var at [256]int
	for shift := 0; shift < bits.Len32(bound); shift += 8 {
		clear(at[:])
		for _, v := range a {
			at[v>>shift&0xff]++
		}
		sum := 0
		for i, c := range at {
			at[i] = sum
			sum += c
		}
		for _, v := range a {
			b := v >> shift & 0xff
			tmp[at[b]] = v
			at[b]++
		}
		a, tmp = tmp, a
	}
	return a, tmp
}

// writeBackBytes bounds the buffer writeBack places lists in (a variable for
// tests).
var writeBackBytes = 64 << 20

// writeBack writes the spilled lists to the store dst in rank order, new id
// 0 first. Each pass takes the next ids whose lists fit the buffer (one list
// at least, however long); every span reads its spill once, concurrently,
// and drops each list of those ids into its place; the buffer is then
// written out whole. One pass, and one read of the spills, for any store up
// to writeBackBytes.
func writeBack(dst string, spans [][2]graph.Vertex, spills []string, ids, perm []graph.Vertex, outBytes []uint32, format graph.Format, c *ioacct.Counter) error {
	n := len(perm)
	lens := make([]uint32, n) // lens[x]: the bytes of new vertex x's list
	at := make([]uint64, n+1) // at[x]: where they start in the store
	var longest uint64
	for x, v := range perm {
		lens[x] = outBytes[v]
		at[x+1] = at[x] + uint64(lens[x])
		longest = max(longest, uint64(lens[x]))
	}
	buf := make([]byte, max(min(at[n], uint64(writeBackBytes)), longest))

	// put writes the lists of new ids [x0, x1), placed in data, to the
	// store, under a temp name; finish publishes it by rename, discard drops
	// it.
	var put func(x0, x1 int, data []byte) error
	var finish func() error
	var discard func()
	if format == graph.FormatCompressed {
		w, err := graph.NewCompressedWriter(dst, n, c)
		if err != nil {
			return err
		}
		put = func(x0, x1 int, data []byte) error { return w.AddEncoded(data, lens[x0:x1]) }
		finish, discard = w.Finish, w.Discard
	} else {
		f, err := graph.CreateTemp(graph.AdjPath(dst))
		if err != nil {
			return err
		}
		out := ioacct.NewWriter(f, c)
		put = func(_, _ int, data []byte) error {
			_, err := out.Write(data)
			return err
		}
		finish = func() error { return graph.Publish(f, graph.AdjPath(dst)) }
		discard = func() { graph.Discard(f) }
	}

	readers := make([]*bufio.Reader, len(spans))
	for i := range readers {
		readers[i] = bufio.NewReaderSize(nil, 1<<20)
	}
	errs := make([]error, len(spans))
	for x0 := 0; x0 < n; {
		x1 := x0 + 1
		for x1 < n && at[x1+1]-at[x0] <= uint64(len(buf)) {
			x1++
		}
		var wg sync.WaitGroup
		for i, span := range spans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = readSpill(readers[i], spills[i], span, func(u graph.Vertex) []byte {
					if x := int(ids[u]); x >= x0 && x < x1 {
						return buf[at[x]-at[x0] : at[x+1]-at[x0]]
					}
					return nil
				}, outBytes, c)
			}()
		}
		wg.Wait()
		err := errors.Join(errs...)
		if err == nil {
			err = put(x0, x1, buf[:at[x1]-at[x0]])
		}
		if err != nil {
			discard()
			return err
		}
		x0 = x1
	}
	return finish()
}

// readSpill reads the spill of the vertices of span once, through br: each
// list goes into the slice place returns for its vertex, or is skipped when
// that is nil.
func readSpill(br *bufio.Reader, path string, span [2]graph.Vertex, place func(u graph.Vertex) []byte, outBytes []uint32, c *ioacct.Counter) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br.Reset(ioacct.NewReader(f, c))
	for u := span[0]; u < span[1]; u++ {
		if dst := place(u); dst != nil {
			_, err = io.ReadFull(br, dst)
		} else {
			_, err = br.Discard(int(outBytes[u]))
		}
		if err != nil {
			return fmt.Errorf("orient: read back %s: %w", path, err)
		}
	}
	return nil
}

func cleanup(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}

// InDegPath is the path of the persisted in-degree file of an oriented
// store rooted at base.
func InDegPath(base string) string { return base + ".indeg" }

// LoadInDegrees reads the persisted in-degree array of an oriented store.
func LoadInDegrees(base string, n int) ([]uint32, error) {
	f, err := os.Open(InDegPath(base))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n*graph.EntrySize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("orient: read in-degrees %s: %w", InDegPath(base), err)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[i*graph.EntrySize:])
	}
	return out, nil
}

// CSR orients an in-memory graph, returning the oriented CSR (out-lists
// sorted by id) — the in-memory analogue used by baselines and tests.
func CSR(g *graph.CSR) *graph.CSR {
	n := g.NumVertices()
	deg := g.Degrees()
	outDeg := make([]uint32, n)
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if Less(deg, graph.Vertex(u), v) {
				outDeg[u]++
			}
		}
	}
	offsets := make([]uint64, n+1)
	var run uint64
	for v := 0; v < n; v++ {
		offsets[v] = run
		run += uint64(outDeg[v])
	}
	offsets[n] = run
	adj := make([]graph.Vertex, run)
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.Vertex(u)) {
			if Less(deg, graph.Vertex(u), v) {
				adj[cursor[u]] = v
				cursor[u]++
			}
		}
	}
	return &graph.CSR{Offsets: offsets, Adj: adj, Oriented: true}
}
