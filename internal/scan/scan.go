// Package scan holds the sequential scan sources the MGT runners of the
// paper's layout used to read the adjacency file through. The engine no
// longer uses them: both of its layouts read the store through one reader,
// the cone blocks of mgt.RunDealt. What stays is what bench/probes.go's
// drain and decode probes measure, until they are retired:
//
//   - Buffered — every handle's pass is its own buffered sequential scan of
//     the whole file.
//   - Shared — one sequential reader broadcasts each block of the file to
//     all subscribed handles through per-handle ring buffers, turning P
//     concurrent full-file scans into one physical scan.
//
// Both yield every vertex in order with its out-list split into sorted
// segments of at most maxList entries (exactly like graph.Scanner).
//
// SourceKind is also the engine's layout switch (core.Options.Scan): auto,
// the default, is cooperative windows, and buffered is the paper's layout,
// one runner per range with a private window, which only the ledger and the
// engine's tests select. "shared" names no layout. A layout named from
// outside the program — a cluster batch, a service query — may only be
// auto (CheckLayout).
package scan

import (
	"context"
	"fmt"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// SourceKind names a ScanSource implementation, as used by core.Options
// and, refused unless auto, the cluster wire format (CheckLayout).
type SourceKind string

const (
	// SourceAuto is the engine's cooperative windows (mgt.RunDealt); it
	// names no source of this package. The empty string means the same.
	SourceAuto SourceKind = "auto"
	// SourceBuffered is the engine's paper layout, one runner per range; as
	// a source of this package, one private buffered sequential scan per
	// pass.
	SourceBuffered SourceKind = "buffered"
	// SourceShared is one physical sequential scan broadcast to all
	// concurrently-scanning handles. It is a source only (New), never an
	// engine layout: ParseSource rejects it.
	SourceShared SourceKind = "shared"
)

// ParseSource validates the engine's layout (core.Options.Scan). The empty
// string means SourceAuto.
func ParseSource(s string) (SourceKind, error) {
	switch SourceKind(s) {
	case "":
		return SourceAuto, nil
	case SourceAuto, SourceBuffered:
		return SourceKind(s), nil
	}
	return "", fmt.Errorf("scan: unknown scan source %q (want auto, buffered)", s)
}

// CheckLayout refuses a layout named from outside the program — a cluster
// batch's CountArgs.Scan, a service query's ?scan= — that is not the one
// offered there: the empty string and "auto" name it, and any other name,
// the paper's layout included, is an error naming it.
func CheckLayout(name string) error {
	if !SourceKind(name).IsAuto() {
		return fmt.Errorf("scan: scan source %q is not offered (want auto; the paper's layout, buffered, was removed from the options)", name)
	}
	return nil
}

// IsAuto reports whether k names no source: SourceAuto or the zero value.
func (k SourceKind) IsAuto() bool { return k == SourceAuto || k == "" }

// Config parameterizes a source.
type Config struct {
	// BufBytes is the sequential read buffer (Buffered) or broadcast block
	// size (Shared); non-positive selects 1 MiB.
	BufBytes int
	// Counter receives the I/O the source performs on its own behalf —
	// the Shared broadcaster's single scan. A Buffered handle's scans are
	// charged to the counter it was opened with instead. Nil allocates a
	// private counter.
	Counter *ioacct.Counter
	// Ctx bounds the source's lifetime: a source is created for exactly one
	// run, so the run's context cancels it. On cancellation the Shared
	// broadcaster abandons its round loop and unblocks every runner waiting
	// on a ring buffer or round quorum; blocked operations return the
	// context's error. Nil means
	// context.Background() (never cancelled).
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.BufBytes <= 0 {
		c.BufBytes = 1 << 20
	}
	// Blocks must hold whole entries: the shared broadcaster decodes
	// block-by-block, so an unaligned size would
	// split an entry across blocks. Round up to the next entry boundary.
	if rem := c.BufBytes % graph.EntrySize; rem != 0 {
		c.BufBytes += graph.EntrySize - rem
	}
	if c.Counter == nil {
		c.Counter = ioacct.NewCounter(0)
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// Source supplies sequential passes over one oriented store to a set of
// concurrent readers. A Source is safe for concurrent Handle calls.
type Source interface {
	// Handle opens a per-reader accessor whose I/O is charged to c (nil
	// allocates a private counter). Handles are not safe for concurrent
	// use; each reader gets its own and must Close it as soon as it is
	// done — a Shared source uses the set of open handles to decide when a
	// broadcast round can start.
	Handle(c *ioacct.Counter) (Handle, error)
	// IO reports the I/O performed by the source itself (see
	// Config.Counter).
	IO() ioacct.Stats
	// Kind reports the concrete source kind.
	Kind() SourceKind
	// Close releases the source. All handles must be closed first.
	Close() error
}

// Handle is one reader's access to the adjacency data.
type Handle interface {
	// Scan starts a full sequential pass over the adjacency file. Lists
	// longer than maxList entries are yielded in consecutive sorted
	// segments under the same vertex (maxList <= 0 means whole lists). At
	// most one Scan may be in flight per handle.
	Scan(maxList int) (Scan, error)
	// Close releases the handle.
	Close() error
}

// CompressedScan is the optional Scan extension of compressed stores: the
// pass can deliver each vertex's list in its encoded form. Every source's
// compressed scan implements it (the concrete type is
// *graph.CompressedSeqScan in both cases); plain-store scans do not.
// NextCompressed and Next consume the same pass and must not be mixed.
type CompressedScan interface {
	NextCompressed() (u graph.Vertex, list graph.CompressedList, ok bool)
}

// Scan is one sequential pass in progress. graph.SeqScanner satisfies it.
type Scan interface {
	// Next returns the next vertex and its list (or list segment); the
	// returned slice is only valid until the following call. ok is false
	// at the end of the pass or on error — check Err.
	Next() (u graph.Vertex, list []graph.Vertex, ok bool)
	// Err reports the first error encountered by Next.
	Err() error
	// Close abandons the pass; it must be called even after a complete
	// pass.
	Close() error
}

// New creates a source of the given kind over the oriented store d.
// SourceAuto is not one (see its comment).
func New(kind SourceKind, d *graph.Disk, cfg Config) (Source, error) {
	cfg = cfg.withDefaults()
	switch kind {
	case SourceBuffered:
		return newBuffered(d, cfg), nil
	case SourceShared:
		return newShared(d, cfg), nil
	case SourceAuto, "":
		return nil, fmt.Errorf("scan: %q names no scan source (the engine's cooperative windows read the store themselves)", SourceAuto)
	}
	return nil, fmt.Errorf("scan: unknown source kind %q", kind)
}
