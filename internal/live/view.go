package live

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"pdtl/internal/graph"
	"pdtl/internal/orient"
	"pdtl/internal/vset"
)

// baseSnap is one immutable on-disk snapshot of the graph: the opened
// oriented store plus the in-memory state the live layer derives from it
// once — the pinned oriented adjacency (membership checks and the overlay
// read path) and the undirected degrees (the frozen rank that tells the
// overlay which direction a delta edge is stored in). A live graph pins ~4
// bytes per directed edge in RAM on top of the store; that is the price of
// serving merged reads and validating mutations without disk seeks.
type baseSnap struct {
	disk *graph.Disk
	base string // oriented store path
	// csr is the pinned oriented adjacency (csr.Neighbors(u) = N+(u)).
	csr *graph.CSR
	// undirDeg[v] = d_G(v) (out + in of the oriented store) — the degree
	// the orientation ranked vertices by, reconstructed exactly.
	undirDeg []uint32
	// gen is the compaction generation (0 = the store OpenLive was given).
	gen uint64
	// owned snapshots (gen ≥ 1) were built by the compactor, which deletes
	// them when they are replaced; the user's original store never is.
	owned bool
	// files are the paths to remove when an owned snapshot retires.
	files []string
}

// newBaseSnap pins the oriented store d into a snapshot, in original ids: a
// ranked store is mapped back through its .perm, so the overlay — and every
// count and listing of the live graph — works in the ids its mutations name.
func newBaseSnap(d *graph.Disk, base string, gen uint64, owned bool, files []string) (*baseSnap, error) {
	if !d.Meta.Oriented {
		return nil, fmt.Errorf("live: store %s is not oriented", base)
	}
	csr, err := d.OriginalCSR()
	if err != nil {
		return nil, err
	}
	undirDeg := csr.Degrees()
	for _, w := range csr.Adj {
		undirDeg[w]++
	}
	return &baseSnap{
		disk:     d,
		base:     base,
		csr:      csr,
		undirDeg: undirDeg,
		gen:      gen,
		owned:    owned,
		files:    files,
	}, nil
}

// rankLess reports u ≺ v under the snapshot's frozen degree order —
// orient.Less over the base undirected degrees, with vertices beyond the
// snapshot (created by delta inserts) ranked as degree 0. The base store
// holds edge (u, v) in u's out-list exactly when rankLess(u, v), so delta
// edges oriented by the same rank merge consistently.
func (b *baseSnap) rankLess(u, v graph.Vertex) bool {
	du, dv := b.degOf(u), b.degOf(v)
	if du != dv {
		return du < dv
	}
	return u < v
}

func (b *baseSnap) degOf(v graph.Vertex) uint32 {
	if int(v) < len(b.undirDeg) {
		return b.undirDeg[v]
	}
	return 0
}

// out returns u's base out-list (nil beyond the snapshot).
func (b *baseSnap) out(u graph.Vertex) []graph.Vertex {
	if int(u) >= b.csr.NumVertices() {
		return nil
	}
	return b.csr.Neighbors(u)
}

// hasEdge reports whether the undirected edge (u, v) is in the snapshot:
// the oriented store holds it under the rank-smaller endpoint.
func (b *baseSnap) hasEdge(u, v graph.Vertex) bool {
	if b.rankLess(v, u) {
		u, v = v, u
	}
	return vset.Contains(b.out(u), v)
}

// view is one immutable published state of the live graph: a base snapshot
// plus up to two delta layers — frozen (being compacted, nil otherwise)
// and active (absorbing mutations). Queries capture a view pointer and
// work off it unlocked; mutations and compaction publish fresh views.
type view struct {
	base   *baseSnap
	frozen *delta // nil unless a compaction is in flight
	active *delta

	// merged is the lazily built overlay (synthetic disk + oriented delta
	// lists); built at most once per view, by the first query.
	mergedOnce sync.Once
	mergedView *merged
	mergedErr  error
}

// deltaEdges reports the total delta size (both layers, undirected
// inserts + deletes) — the /metrics gauge and compaction trigger measure.
func (v *view) deltaEdges() int { return v.frozenEdges() + v.active.edges() }

func (v *view) frozenEdges() int {
	if v.frozen == nil {
		return 0
	}
	return v.frozen.edges()
}

// present reports whether the undirected edge (u, v) exists in the view:
// base presence composed through the frozen and active layers.
func (v *view) present(u, w graph.Vertex) bool {
	p := v.base.hasEdge(u, w)
	if v.frozen != nil {
		p = v.frozen.presentAfter(p, u, w)
	}
	return v.active.presentAfter(p, u, w)
}

// merged returns the view's overlay, building it on first use.
func (v *view) merged() (*merged, error) {
	v.mergedOnce.Do(func() {
		v.mergedView, v.mergedErr = buildMerged(v.base, compose(v.frozen, v.active))
	})
	return v.mergedView, v.mergedErr
}

// merged is the overlay the engine runs against: a synthetic in-memory
// graph.Disk describing the merged oriented graph (degrees, offsets,
// meta), plus the per-vertex oriented insert/delete lists ReadAt applies on
// top of the pinned base adjacency. Everything here but the buffer pool is
// immutable once built.
type merged struct {
	base *baseSnap
	// eff is the composed (frozen ⊕ active) delta the overlay was built
	// from, kept for the compactor's edge streaming.
	eff *delta
	// disk is the synthetic merged store: real Degrees/Offsets/Meta, no
	// files behind it — its AdjData is the merged view itself.
	disk *graph.Disk
	// outIns[u] / outDel[u] are the delta edges oriented u → v by the base
	// rank: sorted, outIns disjoint from base out-lists, outDel a subset
	// of them.
	outIns map[graph.Vertex][]graph.Vertex
	outDel map[graph.Vertex][]graph.Vertex
	// hasDelta[u] reports that u has an outIns or outDel list — ReadAt's
	// test per vertex, cheaper than the maps'.
	hasDelta []bool
	// lists hands each ReadAt call its own buffer (*[]graph.Vertex) for the
	// delta vertices' merged lists.
	lists sync.Pool
}

// buildMerged computes the overlay for base ⊕ eff. Cost: O(n + |delta|)
// plus the prefix sums — linear passes only, done once per published view
// on first query.
func buildMerged(base *baseSnap, eff *delta) (*merged, error) {
	baseN := base.disk.NumVertices()
	n := baseN
	if len(eff.lists) > 0 && int(eff.maxVertex)+1 > n {
		n = int(eff.maxVertex) + 1
	}

	outIns := make(map[graph.Vertex][]graph.Vertex, len(eff.lists))
	outDel := make(map[graph.Vertex][]graph.Vertex, len(eff.lists))
	for u, l := range eff.lists {
		var ins, del []graph.Vertex
		for _, v := range l.ins {
			if base.rankLess(u, v) {
				ins = append(ins, v)
			}
		}
		for _, v := range l.del {
			if base.rankLess(u, v) {
				del = append(del, v)
			}
		}
		if len(ins) > 0 {
			outIns[u] = ins
		}
		if len(del) > 0 {
			outDel[u] = del
		}
	}

	degrees := make([]uint32, n)
	hasDelta := make([]bool, n)
	for u := range outIns {
		hasDelta[u] = true
	}
	for u := range outDel {
		hasDelta[u] = true
	}
	var adjEntries uint64
	var maxOut uint32
	offsets := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		u := graph.Vertex(v)
		d := 0
		if v < baseN {
			d = base.csr.Degree(u)
		}
		d += len(outIns[u]) - len(outDel[u])
		if d < 0 {
			return nil, fmt.Errorf("live: vertex %d merged out-degree %d < 0 (delta invariant broken)", v, d)
		}
		degrees[v] = uint32(d)
		offsets[v] = adjEntries
		adjEntries += uint64(d)
		maxOut = max(maxOut, uint32(d))
	}
	offsets[n] = adjEntries

	numEdges := base.disk.Meta.NumEdges + uint64(eff.insEdges) - uint64(eff.delEdges)
	disk := &graph.Disk{
		Meta: graph.Meta{
			Name:         base.disk.Meta.Name + "+delta",
			NumVertices:  int64(n),
			NumEdges:     numEdges,
			AdjEntries:   adjEntries,
			Oriented:     true,
			MaxDegree:    base.disk.Meta.MaxDegree,
			MaxOutDegree: maxOut,
			Format:       graph.FormatPlain,
		},
		Base:    base.base + "+delta",
		Degrees: degrees,
		Offsets: offsets,
	}
	m := &merged{
		base:     base,
		eff:      eff,
		disk:     disk,
		outIns:   outIns,
		outDel:   outDel,
		hasDelta: hasDelta,
		lists:    sync.Pool{New: func() any { return new([]graph.Vertex) }},
	}
	disk.AdjData = m
	return m, nil
}

// outList appends vertex u's merged out-list (base ∪ ins \ del, sorted) to
// dst and returns it.
func (m *merged) outList(dst []graph.Vertex, u graph.Vertex) []graph.Vertex {
	return vset.Merge(dst, m.base.out(u), m.outIns[u], m.outDel[u])
}

// numVertices of the merged graph.
func (m *merged) numVertices() int { return m.disk.NumVertices() }

// ReadAt serves the merged oriented adjacency in a plain store's layout —
// entry i of m.disk's offsets, little-endian, at byte i·EntrySize — so the
// engine reads a live view as it reads a plain store (graph.Disk.AdjData).
// A vertex without delta is encoded straight from the pinned base list; a
// delta vertex's list is merged into a buffer of this call's own, so
// concurrent readers are safe. A read reaching past the data area returns
// what lies before its end and io.EOF.
func (m *merged) ReadAt(p []byte, off int64) (int, error) {
	size := int64(m.disk.Meta.AdjEntries) * graph.EntrySize
	if off < 0 || off > size {
		return 0, fmt.Errorf("live: read at %d outside the %d-byte merged adjacency", off, size)
	}
	n := int(min(int64(len(p)), size-off))
	var buf *[]graph.Vertex
	for done, u := 0, m.disk.VertexAt(uint64(off)/graph.EntrySize); done < n; u++ {
		list := m.base.out(u)
		if m.hasDelta[u] {
			if buf == nil {
				buf = m.lists.Get().(*[]graph.Vertex)
			}
			*buf = m.outList((*buf)[:0], u)
			list = *buf
		}
		skip := off + int64(done) - int64(m.disk.Offsets[u])*graph.EntrySize
		done += putPlain(p[done:n], list, int(skip))
	}
	if buf != nil {
		m.lists.Put(buf)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// putPlain writes the plain encoding of list, from its byte skip on, into
// dst until either runs out, and reports the bytes written.
func putPlain(dst []byte, list []graph.Vertex, skip int) int {
	list = list[skip/graph.EntrySize:]
	var e [graph.EntrySize]byte
	n := 0
	if cut := skip % graph.EntrySize; cut != 0 && len(list) > 0 {
		binary.LittleEndian.PutUint32(e[:], list[0])
		n = copy(dst, e[cut:])
		list = list[1:]
	}
	whole := min(len(list), (len(dst)-n)/graph.EntrySize)
	for _, v := range list[:whole] {
		binary.LittleEndian.PutUint32(dst[n:], v)
		n += graph.EntrySize
	}
	if whole < len(list) {
		binary.LittleEndian.PutUint32(e[:], list[whole])
		n += copy(dst[n:], e[:])
	}
	return n
}

// rank order sanity: orient.Less over the original degrees must match the
// snapshot reconstruction — referenced here so the dependency is explicit.
var _ = orient.Less
