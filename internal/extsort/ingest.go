package extsort

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"os"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// BuildStore converts an arbitrary (unsorted, possibly multi-edged) binary
// edge file into the bidirectional sorted graph store PDTL consumes — the
// external-memory ingest of Section V-B, in one streaming pass over the
// input (see the package doc): self-loops dropped, every edge mirrored into
// radix-sorted runs, the runs merged, and the deduplicated adjacency
// emitted from the sorted stream with the degree and metadata files.
//
// memEdges bounds the records held in memory while sorting, radix scratch
// included: at most 8·memEdges bytes. The vertex count is the largest id
// of a non-loop edge + 1.
//
// Cancelling ctx aborts the pipeline between record batches and returns
// ctx.Err(); the run files are removed, but a partially written store at
// base is left behind (the caller owns base's lifecycle). A nil ctx means
// context.Background().
func BuildStore(ctx context.Context, edgeFile, base, name string, memEdges int, c *ioacct.Counter) error {
	return BuildStoreFormat(ctx, edgeFile, base, name, memEdges, graph.FormatPlain, c)
}

// BuildStoreFormat is BuildStore with a chosen output store format. Only the
// list writer differs: a compressed build segment-encodes each deduplicated
// adjacency list as it streams off the sort, so the memory bound is
// unchanged (one list at a time on top of the sort's memEdges).
func BuildStoreFormat(ctx context.Context, edgeFile, base, name string, memEdges int, format graph.Format, c *ioacct.Counter) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if memEdges < 1 {
		return fmt.Errorf("extsort: memory budget %d, need ≥ 1", memEdges)
	}
	if c == nil {
		c = ioacct.NewCounter(0)
	}
	return newSorter(base, memEdges, c).build(ctx, edgeFile, name, format)
}

// build is BuildStoreFormat through s, whose workers and split tests may
// set.
func (s *sorter) build(ctx context.Context, edgeFile, name string, format graph.Format) error {
	defer s.removeRuns()
	if err := s.load(ctx, edgeFile); err != nil {
		return err
	}
	e, err := newEmitter(s.base, s.numVertices(), format, s.c)
	if err != nil {
		return err
	}
	if err := s.drain(ctx, e.add); err != nil {
		e.w.Finish()
		return err
	}
	return e.finish(s.base, name, format, s.c)
}

// listWriter takes one adjacency list per vertex, in id order, empty for a
// vertex without edges: adjWriter or graph.CompressedWriter.
type listWriter interface {
	Add(list []graph.Vertex) error
	Finish() error
}

// adjWriter is the plain format's listWriter: each list's entries,
// little-endian, appended to <base>.adj.
type adjWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func (w *adjWriter) Add(list []graph.Vertex) error {
	buf := w.bw.AvailableBuffer()
	for _, v := range list {
		buf = binary.LittleEndian.AppendUint32(buf, v)
	}
	_, err := w.bw.Write(buf)
	return err
}

func (w *adjWriter) Finish() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// emitter turns the sorted key stream into a store. Keys arrive grouped by
// source with ascending destinations, so a key equal to its predecessor is
// a duplicate, and one list is gathered at a time.
type emitter struct {
	w       listWriter
	degrees []uint32
	list    []graph.Vertex // destinations of u gathered so far
	u       uint32         // source of list
	next    uint32         // lowest vertex whose list is not written
	prev    uint64         // last key; 0 is no key, since (0,0) is a loop
	entries uint64
	maxDeg  uint32
}

func newEmitter(base string, n int, format graph.Format, c *ioacct.Counter) (*emitter, error) {
	e := &emitter{degrees: make([]uint32, n)}
	if format == graph.FormatCompressed {
		w, err := graph.NewCompressedWriter(base, n, c)
		if err != nil {
			return nil, err
		}
		e.w = w
		return e, nil
	}
	f, err := os.Create(graph.AdjPath(base))
	if err != nil {
		return nil, err
	}
	e.w = &adjWriter{f: f, bw: bufio.NewWriterSize(ioacct.NewWriter(f, c), 1<<20)}
	return e, nil
}

// add consumes the next batch of the sorted key stream.
func (e *emitter) add(keys []uint64) error {
	for _, k := range keys {
		if k == e.prev {
			continue
		}
		e.prev = k
		if u := uint32(k >> 32); u != e.u {
			if err := e.flush(); err != nil {
				return err
			}
			e.u = u
		}
		e.list = append(e.list, graph.Vertex(k))
	}
	return nil
}

// flush writes empty lists for the vertices below u, then u's list.
func (e *emitter) flush() error {
	for ; e.next < e.u; e.next++ {
		if err := e.w.Add(nil); err != nil {
			return err
		}
	}
	d := uint32(len(e.list))
	e.degrees[e.u] = d
	e.maxDeg = max(e.maxDeg, d)
	e.entries += uint64(d)
	e.next = e.u + 1
	err := e.w.Add(e.list)
	e.list = e.list[:0]
	return err
}

// finish writes the last list — the largest id's, which has an edge — and
// the degree and metadata files.
func (e *emitter) finish(base, name string, format graph.Format, c *ioacct.Counter) error {
	if len(e.degrees) > 0 {
		if err := e.flush(); err != nil {
			e.w.Finish()
			return err
		}
	}
	if err := e.w.Finish(); err != nil {
		return err
	}
	if err := graph.WriteUint32s(graph.DegPath(base), e.degrees, c); err != nil {
		return err
	}
	meta := graph.Meta{
		Name:        name,
		NumVertices: int64(len(e.degrees)),
		NumEdges:    e.entries / 2,
		AdjEntries:  e.entries,
		MaxDegree:   e.maxDeg,
	}
	if format == graph.FormatCompressed {
		meta.Format = graph.FormatCompressed
	}
	return graph.WriteMeta(base, meta)
}
