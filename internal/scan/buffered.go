package scan

import (
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// bufferedSource gives every Scan a private buffered sequential read of the
// whole adjacency data: P handles doing R passes each read the data P·R
// times (modulo the OS page cache). Both store formats are served —
// graph.NewScanner picks the decoder matching the store, so compressed
// stores stream compressed blocks here too.
type bufferedSource struct {
	d   *graph.Disk
	cfg Config
}

func newBuffered(d *graph.Disk, cfg Config) *bufferedSource {
	return &bufferedSource{d: d, cfg: cfg}
}

func (s *bufferedSource) Kind() SourceKind { return SourceBuffered }

func (s *bufferedSource) IO() ioacct.Stats { return s.cfg.Counter.Snapshot() }

func (s *bufferedSource) Close() error { return nil }

func (s *bufferedSource) Handle(c *ioacct.Counter) (Handle, error) {
	if c == nil {
		c = ioacct.NewCounter(0)
	}
	return &bufferedHandle{src: s, c: c}, nil
}

type bufferedHandle struct {
	src *bufferedSource
	c   *ioacct.Counter
}

func (h *bufferedHandle) Scan(maxList int) (Scan, error) {
	sc, err := h.src.d.NewScanner(h.c, h.src.cfg.BufBytes)
	if err != nil {
		return nil, err
	}
	sc.SetMaxList(maxList)
	return sc, nil
}

func (h *bufferedHandle) Close() error { return nil }
