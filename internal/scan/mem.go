package scan

import (
	"bufio"
	"fmt"
	"io"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// memSource pins the whole adjacency data in RAM: the file is read once at
// construction (charged to the source counter) and every scan pass and
// window load afterwards is a memory copy, skipping the pass machinery's
// I/O entirely. For a plain store that is the decoded entry array
// (4·|E*| bytes); for a compressed store the raw .cadj data area is kept
// compressed in memory — the same factor the format saves on disk it saves
// in RAM, and scans hand out zero-copy compressed views. The pass structure
// (and thus the triangle output) is unchanged either way.
type memSource struct {
	d     *graph.Disk
	cfg   Config
	adj   []graph.Vertex // plain stores
	cdata []byte         // compressed stores: the .cadj data area
}

func newMem(d *graph.Disk, cfg Config) (*memSource, error) {
	f, err := d.OpenAdjData()
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(ioacct.NewReader(f, cfg.Counter), cfg.BufBytes)
	if d.Format() == graph.FormatCompressed {
		cdata := make([]byte, d.AdjBytes())
		for off := 0; off < len(cdata); {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
			want := cfg.BufBytes
			if rem := len(cdata) - off; rem < want {
				want = rem
			}
			if _, err := io.ReadFull(br, cdata[off:off+want]); err != nil {
				return nil, fmt.Errorf("scan: preload compressed adjacency: %w", err)
			}
			off += want
		}
		return &memSource{d: d, cfg: cfg, cdata: cdata}, nil
	}
	adj := make([]graph.Vertex, d.Meta.AdjEntries)
	raw := make([]byte, cfg.BufBytes)
	for off := 0; off < len(adj); {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
		want := len(raw)
		if rem := (len(adj) - off) * graph.EntrySize; rem < want {
			want = rem
		}
		if _, err := io.ReadFull(br, raw[:want]); err != nil {
			return nil, fmt.Errorf("scan: preload adjacency: %w", err)
		}
		n := want / graph.EntrySize
		graph.DecodePlain(adj[off:off+n], raw[:want])
		off += n
	}
	return &memSource{d: d, cfg: cfg, adj: adj}, nil
}

func (s *memSource) Kind() SourceKind { return SourceMem }

func (s *memSource) IO() ioacct.Stats { return s.cfg.Counter.Snapshot() }

func (s *memSource) Close() error { return nil }

func (s *memSource) Handle(c *ioacct.Counter) (Handle, error) {
	h := &memHandle{src: s}
	if s.cdata != nil {
		h.scratch = make([]graph.Vertex, 0, graph.SegmentEntries)
	}
	return h, nil
}

type memHandle struct {
	src     *memSource
	scratch []graph.Vertex // segment decode scratch (compressed stores)
}

func (h *memHandle) Scan(maxList int) (Scan, error) {
	if h.src.cdata != nil {
		sc, err := h.src.d.NewCompressedMemScan(h.src.cdata)
		if err != nil {
			return nil, err
		}
		sc.SetMaxList(maxList)
		return sc, nil
	}
	return &memScan{src: h.src, cur: graph.NewSegCursor(h.src.d, 0, maxList)}, nil
}

func (h *memHandle) ReadEntries(dst []graph.Vertex, pos uint64) error {
	if h.src.cdata != nil {
		return h.src.d.DecodeEntries(h.src.cdata, dst, pos, h.scratch)
	}
	end := pos + uint64(len(dst))
	if end > uint64(len(h.src.adj)) {
		return fmt.Errorf("scan: read entries [%d,%d) beyond %d in-memory entries", pos, end, len(h.src.adj))
	}
	copy(dst, h.src.adj[pos:end])
	return nil
}

func (h *memHandle) Close() error { return nil }

// memScan yields adjacency lists directly out of the in-memory array —
// zero copy — with graph.Scanner's segmentation semantics via
// graph.SegCursor.
type memScan struct {
	src *memSource
	cur graph.SegCursor
	pos uint64 // entry cursor into adj
}

func (sc *memScan) Next() (graph.Vertex, []graph.Vertex, bool) {
	u, d, ok := sc.cur.Step()
	if !ok {
		return 0, nil, false
	}
	list := sc.src.adj[sc.pos : sc.pos+uint64(d)]
	sc.pos += uint64(d)
	return u, list, true
}

func (sc *memScan) Err() error { return nil }

func (sc *memScan) Close() error { return nil }
