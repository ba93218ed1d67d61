// Package scan is the pluggable source layer under the MGT runners of the
// paper's layout: it decides *how* adjacency data reaches a runner (the
// ScanSource). PDTL's engine (Section IV-B of the paper) gives every one of
// the P runners its own end-to-end sequential scan of the adjacency file;
// putting that decision behind an interface lets the engine trade it per
// run:
//
//   - Buffered — the paper's configuration: every runner performs its own
//     buffered sequential scan (P full-file scans per round of passes,
//     deduplicated only by the OS page cache).
//   - Shared — one sequential reader broadcasts each block of the
//     adjacency file to all subscribed runners through per-runner ring
//     buffers, turning P concurrent full-file scans into one physical scan
//     (the explicit scan sharing that engineering work on distributed
//     triangle counting shows is where the I/O constant factors live).
//
// The engine's default, cooperative windows (SourceAuto), is not a source of
// this package: its runners read the cone blocks they are dealt themselves.
//
// All sources present identical semantics: a full pass yields every vertex
// in order with its out-list split into sorted segments of at most maxList
// entries (exactly like graph.Scanner, whose segmentation removes the
// paper's small-degree assumption), and random access reads any entry
// range. Triangle output is therefore bitwise identical across sources —
// the cross-check tests in internal/core assert this.
package scan

import (
	"context"
	"fmt"

	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
)

// SourceKind names a ScanSource implementation, as used by CLI flags, the
// cluster wire format, and core.Options.
type SourceKind string

const (
	// SourceAuto names no source of this package: the engine runs
	// cooperative windows, whose runners read the cone blocks they are
	// dealt themselves (mgt.RunDealt). The empty string means the same.
	SourceAuto SourceKind = "auto"
	// SourceBuffered is one private buffered sequential scan per runner
	// pass (the paper's configuration).
	SourceBuffered SourceKind = "buffered"
	// SourceShared is one physical sequential scan broadcast to all
	// concurrently-scanning runners.
	SourceShared SourceKind = "shared"
)

// ParseSource validates a source name from a flag or wire message. The
// empty string means SourceAuto.
func ParseSource(s string) (SourceKind, error) {
	switch SourceKind(s) {
	case "":
		return SourceAuto, nil
	case SourceAuto, SourceBuffered, SourceShared:
		return SourceKind(s), nil
	}
	return "", fmt.Errorf("scan: unknown scan source %q (want auto, buffered, or shared)", s)
}

// IsAuto reports whether k names no source: SourceAuto or the zero value.
func (k SourceKind) IsAuto() bool { return k == SourceAuto || k == "" }

// OrAuto spells the zero value out, for reports and run keys.
func (k SourceKind) OrAuto() SourceKind {
	if k.IsAuto() {
		return SourceAuto
	}
	return k
}

// Config parameterizes a source.
type Config struct {
	// BufBytes is the sequential read buffer (Buffered) or broadcast block
	// size (Shared); non-positive selects 1 MiB.
	BufBytes int
	// Counter receives the I/O the source performs on its own behalf —
	// the Shared broadcaster's single scan. Per-runner
	// I/O (window loads, large-vertex re-reads, Buffered scans) is charged
	// to the counter each Handle was opened with instead. Nil allocates a
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

// Source supplies adjacency data for one oriented store to a set of
// concurrent runners. A Source is safe for concurrent Handle calls; it is
// owned (created and closed) by the engine, never by a runner.
type Source interface {
	// Handle opens a per-runner accessor whose I/O is charged to c (nil
	// allocates a private counter). Handles are not safe for concurrent
	// use; each runner gets its own and must Close it as soon as it is
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

// Handle is one runner's access to the adjacency data.
type Handle interface {
	// Scan starts a full sequential pass over the adjacency file. Lists
	// longer than maxList entries are yielded in consecutive sorted
	// segments under the same vertex (maxList <= 0 means whole lists). At
	// most one Scan may be in flight per handle.
	Scan(maxList int) (Scan, error)
	// ReadEntries fills dst with the adjacency entries
	// [pos, pos+len(dst)) — the random-access path of the window loads
	// and large-vertex re-reads.
	ReadEntries(dst []graph.Vertex, pos uint64) error
	// Close releases the handle.
	Close() error
}

// CompressedScan is the optional Scan extension of compressed stores: the
// pass can deliver each vertex's list in its encoded form, which the
// header-pruned pass rejects on its segment headers before decoding. Every
// source's compressed scan implements it (the concrete type is
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
