package scan

import (
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// bufferedSource is the paper's configuration: each handle owns a
// random-access reader, and every Scan opens a private buffered sequential
// read of the whole adjacency data. With P runners doing R passes each, the
// data is read P·R times (modulo the OS page cache). Both store formats are
// served — graph.NewScanner and graph.OpenRandom pick the decoder matching
// the store, so compressed stores stream compressed blocks here too.
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
	ra, err := s.d.OpenRandom(c)
	if err != nil {
		return nil, err
	}
	return &bufferedHandle{src: s, c: c, ra: ra}, nil
}

type bufferedHandle struct {
	src *bufferedSource
	c   *ioacct.Counter
	ra  graph.RandomReader
}

func (h *bufferedHandle) Scan(maxList int) (Scan, error) {
	sc, err := h.src.d.NewScanner(h.c, h.src.cfg.BufBytes)
	if err != nil {
		return nil, err
	}
	sc.SetMaxList(maxList)
	return sc, nil
}

func (h *bufferedHandle) ReadEntries(dst []graph.Vertex, pos uint64) error {
	return h.ra.ReadEntries(dst, pos)
}

func (h *bufferedHandle) Close() error { return h.ra.Close() }
