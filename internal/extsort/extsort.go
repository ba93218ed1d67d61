// Package extsort ingests a binary edge file into the bidirectional sorted
// graph store PDTL consumes — the O(sort(|E|)) step of Theorem IV.2 ("If
// the graph is not already sorted, an additional O(sort(E)) I/Os and
// O(E log E) computations are needed").
//
// An edge file is a flat sequence of little-endian uint32 pairs (8 bytes per
// edge). The ingest is one streaming pipeline:
//
//  1. The edge file is read in 1 MiB blocks. Self-loops are dropped, and
//     both directions of every other edge are appended to a run buffer as
//     packed u<<32|v keys.
//  2. A full buffer is sorted by an LSD radix sort (11-bit digits, over only
//     the digits the run's largest id reaches) and spilled as a run file.
//     A run is sorted by up to GOMAXPROCS workers, each counting and
//     scattering a contiguous chunk of at least sortSplitKeys keys per
//     pass; the sorted run is the same at any worker count.
//  3. At the end of the input, a buffer that never spilled is emitted
//     straight from memory. Otherwise the last buffer is spilled too and the
//     runs are merged (the Aggarwal–Vitter external mergesort), at most
//     mergeFanIn at a time: while more remain, the oldest mergeFanIn are
//     merged into one more run and removed, and the last merge feeds the
//     emitter.
//  4. The emitter drops duplicate keys and writes every vertex's adjacency
//     list, in the plain or the compressed format, then the degrees and the
//     metadata.
//
// Run files (<base>.run<N>) are the only intermediates, and none outlives
// the ingest.
package extsort

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"sync"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

const (
	// EdgeBytes is the on-disk size of one edge record.
	EdgeBytes = 2 * graph.EntrySize
	// keyBytes is the size of one packed key in a run file.
	keyBytes = 8
	// blockBytes is the size of one read of the edge file, and the most
	// one run reader or run writer buffers.
	blockBytes = 1 << 20
	// ctxCheckEvery is how many records pass between context checks: often
	// enough that a SIGINT aborts an ingest of any size within milliseconds,
	// rarely enough to cost nothing per record.
	ctxCheckEvery = blockBytes / EdgeBytes
	// radixBits is the width of one radix-sort digit: a 2 K-entry count
	// table fits in L1.
	radixBits = 11
	radixMask = 1<<radixBits - 1
	// maxDigits is the most digits a key has: three per 32-bit half.
	maxDigits = 2 * ((32 + radixBits - 1) / radixBits)
	// sortSplitKeys is the fewest keys a run sort gives one worker, so a
	// small run (a tiny input's, or one spilled at a low budget) sorts on
	// one worker.
	sortSplitKeys = 64 << 10
	// mergeFanIn is the most runs one merge reads at once, which bounds the
	// open files.
	mergeFanIn = 64
)

// WriteEdgeFile writes edges as binary records to path.
func WriteEdgeFile(path string, edges []graph.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var rec [EdgeBytes]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(rec[0:], e.U)
		binary.LittleEndian.PutUint32(rec[4:], e.V)
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sorter turns an edge file into one ascending stream of packed keys: the
// run buffer and its radix scratch, and the spilled runs not yet merged.
type sorter struct {
	base    string // runs are <base>.run<N>
	c       *ioacct.Counter
	runKeys int // keys one run holds
	// workers is the most goroutines one run sort uses; each gets at least
	// splitKeys keys (sortSplitKeys; tests lower it so tiny runs split).
	workers   int
	splitKeys int
	buf       []uint64
	scratch   []uint64
	// counts holds a digit table per digit with one worker, per worker
	// with more; ors holds each worker's OR of its chunk.
	counts [][1 << radixBits]int
	ors    []uint64
	wblk   []byte   // run writer block
	runs   []string // unmerged run files, oldest first
	made   int      // run files created so far
	maxKey uint64   // largest key sorted; 0 until a key is, since (0,0) is a loop
}

// newSorter holds at most 8·memEdges bytes of records: runs of memEdges/2
// keys (two at least, one edge's worth) and as much radix scratch. Its run
// sorts use up to GOMAXPROCS workers.
func newSorter(base string, memEdges int, c *ioacct.Counter) *sorter {
	return &sorter{base: base, c: c, runKeys: max(2, memEdges/2),
		workers: runtime.GOMAXPROCS(0), splitKeys: sortSplitKeys}
}

// load reads the edge file into sorted runs: at its end the run buffer is
// sorted and holds every key, or it has been spilled with the rest.
func (s *sorter) load(ctx context.Context, src string) error {
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	// Two keys per record at most: a small input never allocates the
	// whole budget.
	s.buf = make([]uint64, 0, max(2, min(int64(s.runKeys), 2*st.Size()/EdgeBytes)))
	r := ioacct.NewReader(f, s.c)
	block := make([]byte, blockBytes)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		k, rerr := io.ReadFull(r, block)
		if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
			return rerr
		}
		if k%EdgeBytes != 0 {
			return fmt.Errorf("extsort: %s: truncated edge record", src)
		}
		for i := 0; i < k; i += EdgeBytes {
			u := binary.LittleEndian.Uint32(block[i:])
			v := binary.LittleEndian.Uint32(block[i+4:])
			if u == v {
				continue
			}
			if len(s.buf)+2 > s.runKeys {
				if err := s.spill(ctx); err != nil {
					return err
				}
			}
			s.buf = append(s.buf, uint64(u)<<32|uint64(v), uint64(v)<<32|uint64(u))
		}
		if rerr != nil {
			break
		}
	}
	if len(s.runs) > 0 {
		return s.spill(ctx)
	}
	s.sortBuf()
	return nil
}

// numVertices is the largest id + 1, or 0 for an input of loops alone.
func (s *sorter) numVertices() int {
	if s.maxKey == 0 {
		return 0
	}
	return int(s.maxKey>>32) + 1
}

// sortBuf radix-sorts the run buffer, one stable counting pass per digit.
// A 32-bit half is sorted only over the digits below its highest set bit
// anywhere in the run, so ids below 2^22 take four passes in all. The
// buffer and the scratch may trade places.
//
// The run is cut into one contiguous chunk per worker, as many as
// s.workers while each gets s.splitKeys keys. In each pass every worker
// counts the digit over its chunk, one prefix sum over (digit value,
// worker) gives each worker its first slot for each value, and every
// worker scatters its chunk stably from there: the sorted run is the same
// at any worker count. One worker's chunk is the whole run, whose digit
// counts no pass changes, so it counts every digit in one read.
func (s *sorter) sortBuf() {
	keys := s.buf
	if cap(s.scratch) < len(keys) {
		s.scratch = make([]uint64, cap(keys))
	}
	if len(s.ors) < s.workers {
		s.counts = make([][1 << radixBits]int, max(maxDigits, s.workers))
		s.ors = make([]uint64, s.workers)
	}
	tmp := s.scratch[:len(keys)]
	w := max(1, min(s.workers, len(keys)/s.splitKeys))
	chunk := func(x []uint64, i int) []uint64 { return x[i*len(x)/w : (i+1)*len(x)/w] }
	parallel(w, func(i int) {
		var or uint64
		for _, k := range chunk(keys, i) {
			or |= k
		}
		s.ors[i] = or
	})
	var or uint64
	for _, o := range s.ors[:w] {
		or |= o
	}
	var shifts [maxDigits]uint
	digits := 0
	for _, half := range [2]uint{0, 32} {
		for sh := uint(0); sh < uint(bits.Len32(uint32(or>>half))); sh += radixBits {
			shifts[digits] = half + sh
			digits++
		}
	}
	if w == 1 {
		countDigits(keys, shifts[:digits], s.counts[:digits])
	}
	for d, sh := range shifts[:digits] {
		tables := s.counts[d : d+1]
		if w > 1 {
			tables = s.counts[:w]
			parallel(w, func(i int) { countDigits(chunk(keys, i), shifts[d:d+1], tables[i:i+1]) })
		}
		sum := 0
		for b := range 1 << radixBits {
			for i := range tables {
				n := tables[i][b]
				tables[i][b] = sum
				sum += n
			}
		}
		parallel(w, func(i int) { scatter(chunk(keys, i), tmp, &tables[i], sh) })
		keys, tmp = tmp, keys
	}
	s.buf, s.scratch = keys, tmp[:0]
	if len(keys) > 0 {
		s.maxKey = max(s.maxKey, keys[len(keys)-1])
	}
}

// countDigits sets tables[d] to the counts of digit shifts[d] over keys.
func countDigits(keys []uint64, shifts []uint, tables [][1 << radixBits]int) {
	clear(tables)
	for _, k := range keys {
		for d, sh := range shifts {
			tables[d][k>>sh&radixMask]++
		}
	}
}

// scatter moves keys to dst by the digit at sh, a key of digit value b to
// at[b], then the next slot — stable, as keys come in order.
func scatter(keys, dst []uint64, at *[1 << radixBits]int, sh uint) {
	for _, k := range keys {
		b := k >> sh & radixMask
		dst[at[b]] = k
		at[b]++
	}
}

// parallel runs fn(0), …, fn(w-1) at once, fn(0) on the calling goroutine,
// and returns when every call has.
func parallel(w int, fn func(i int)) {
	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	fn(0)
	wg.Wait()
}

// spill sorts the run buffer into a new run file and empties it.
func (s *sorter) spill(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.sortBuf()
	f, err := s.newRun()
	if err != nil {
		return err
	}
	err = s.writeKeys(ioacct.NewWriter(f, s.c), s.buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	s.buf = s.buf[:0]
	return err
}

// newRun creates the next run file and lists it for removal.
func (s *sorter) newRun() (*os.File, error) {
	path := s.base + ".run" + strconv.Itoa(s.made)
	s.made++
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s.runs = append(s.runs, path)
	return f, nil
}

// writeKeys writes keys little-endian to w, a block at a time.
func (s *sorter) writeKeys(w io.Writer, keys []uint64) error {
	if s.wblk == nil {
		s.wblk = make([]byte, blockBytes)
	}
	for len(keys) > 0 {
		n := min(len(keys), len(s.wblk)/keyBytes)
		for i, k := range keys[:n] {
			binary.LittleEndian.PutUint64(s.wblk[i*keyBytes:], k)
		}
		if _, err := w.Write(s.wblk[:n*keyBytes]); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// removeRuns deletes every run file not yet merged away.
func (s *sorter) removeRuns() {
	for _, path := range s.runs {
		os.Remove(path)
	}
	s.runs = nil
}

// drain feeds every key to emit in ascending order, in batches of at most
// ctxCheckEvery.
func (s *sorter) drain(ctx context.Context, emit func([]uint64) error) error {
	if len(s.runs) == 0 {
		for keys := s.buf; len(keys) > 0; {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := min(len(keys), ctxCheckEvery)
			if err := emit(keys[:n]); err != nil {
				return err
			}
			keys = keys[n:]
		}
		return nil
	}
	// The radix scratch is idle from here on: the run readers get its share
	// of the budget.
	s.scratch = nil
	for len(s.runs) > mergeFanIn {
		f, err := s.newRun()
		if err != nil {
			return err
		}
		w := ioacct.NewWriter(f, s.c)
		group := s.runs[:mergeFanIn]
		err = s.merge(ctx, group, func(keys []uint64) error { return s.writeKeys(w, keys) })
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		for _, path := range group {
			os.Remove(path)
		}
		s.runs = s.runs[mergeFanIn:]
	}
	return s.merge(ctx, s.runs, emit)
}

// runReader streams the keys of one run file.
type runReader struct {
	f        *os.File
	r        io.Reader
	blk      []byte
	pos, end int
	head     uint64
}

// next loads the run's next key into head; false at the end of the run.
func (r *runReader) next() (bool, error) {
	if r.pos == r.end {
		n, err := io.ReadFull(r.r, r.blk)
		if err == io.EOF {
			return false, nil
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return false, err
		}
		if n%keyBytes != 0 {
			return false, fmt.Errorf("extsort: %s: truncated run", r.f.Name())
		}
		r.pos, r.end = 0, n
	}
	r.head = binary.LittleEndian.Uint64(r.blk[r.pos:])
	r.pos += keyBytes
	return true, nil
}

// merge k-way merges the runs at paths through a min-heap of their heads
// and feeds the keys to emit in batches, collected in the run buffer. The
// readers share the radix scratch's part of the budget.
func (s *sorter) merge(ctx context.Context, paths []string, emit func([]uint64) error) error {
	blk := max(keyBytes, min(blockBytes, s.runKeys*keyBytes/len(paths))&^(keyBytes-1))
	h := make([]*runReader, 0, len(paths))
	defer func() {
		for _, r := range h {
			r.f.Close()
		}
	}()
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		r := &runReader{f: f, r: ioacct.NewReader(f, s.c), blk: make([]byte, blk)}
		h = append(h, r)
		if ok, err := r.next(); err != nil {
			return err
		} else if !ok {
			f.Close()
			h = h[:len(h)-1]
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := s.buf[:0:min(cap(s.buf), ctxCheckEvery)]
	for len(h) > 0 {
		out = append(out, h[0].head)
		if ok, err := h[0].next(); err != nil {
			return err
		} else if !ok {
			h[0].f.Close()
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
		if len(out) == cap(out) || len(h) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := emit(out); err != nil {
				return err
			}
			out = out[:0]
		}
	}
	return nil
}

// siftDown restores the min-heap order of h below i.
func siftDown(h []*runReader, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].head < h[c].head {
			c++
		}
		if h[i].head <= h[c].head {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
