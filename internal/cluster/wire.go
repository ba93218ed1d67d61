// Package cluster implements PDTL's distributed framework (Section IV-B,
// Figure 1): a master orients the graph once, replicates the oriented store
// to every client node, assigns each node its processors' contiguous edge
// ranges (the configurations C_{i,j} of Figure 1), and atomically sums the
// returned triangle counts.
//
// Transport is net/rpc over TCP (stdlib gob encoding). The replica's bytes
// travel outside it, as one byte stream on a second connection to the
// node's listener (stream.go), through an optional token-bucket uplink
// limiter that models the shared NIC of the paper's EC2 experiments, so
// that average copy time grows with node count as in Table III.
package cluster

// The gob wire surface below is fingerprinted into wire.fingerprint
// (append-only policy; see internal/analysis/wirefp). After appending a
// field or struct, regenerate the golden:
//
//go:generate go run pdtl/cmd/pdtl-wirefp -o wire.fingerprint

import (
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/ioacct"
	"pdtl/internal/obs"
)

// FileKind identifies a store file in a replica stream.
type FileKind string

// The store files replicated to every node. Which set travels depends on
// the oriented store's encoding: plain stores ship {meta, deg, adj},
// compressed stores ship {meta, deg, cadj, cidx}. The in-degree file is
// never copied: load balancing is the master's job (Section IV-B1).
const (
	FileMeta FileKind = "meta"
	FileDeg  FileKind = "deg"
	FileAdj  FileKind = "adj"
	FileCAdj FileKind = "cadj"
	FileCIdx FileKind = "cidx"
)

// HelloArgs requests a handshake.
type HelloArgs struct{}

// HelloReply describes a node.
type HelloReply struct {
	// Name is the node's self-reported label.
	Name string
	// MaxWorkers is the node's available processor count.
	MaxWorkers int
	// HeldWindows says the node runs stealing units (CountArgs.Unit) and
	// keeps a unit's window loaded for the next one. A node without
	// it would take a unit's empty Ranges for nothing to count, so a stealing
	// master does not let it join.
	HeldWindows bool
	// StreamCopy says the node takes its replica as one byte stream on its
	// listener (stream.go). A node without it only takes the chunk RPCs no
	// master sends any more, so no master lets it join.
	StreamCopy bool
}

// BeginGraphArgs starts a graph transfer.
type BeginGraphArgs struct {
	// Name is the dataset name; the node stores the copy under it.
	Name string
	// Token identifies this transfer: the replica stream and EndGraph that
	// follow must carry it. A later BeginGraph supersedes the transfer and
	// invalidates the token, so a superseded master (presumed dead, but
	// possibly just slow) has the rest of its stream refused instead of
	// interleaved into the new master's files.
	Token string
	// Kinds lists the file kinds this transfer will stream; empty means the
	// plain-store triple {meta, deg, adj} (masters predating the compressed
	// format).
	Kinds []FileKind
}

// EndGraphArgs finalizes a transfer.
type EndGraphArgs struct {
	// Token must match the BeginGraph that opened the transfer.
	Token string
}

// EndGraphReply acknowledges and reports the bytes received.
type EndGraphReply struct {
	BytesReceived int64
}

// CountArgs instructs a node to run its calculation phase.
type CountArgs struct {
	// GraphName selects which received graph copy to process.
	GraphName string
	// RunID identifies this calculation for cooperative cancellation: the
	// master may abort it mid-run with a Cancel RPC carrying the same id.
	// Empty means the run is not cancellable remotely. The id is derived
	// from the run and the work unit's global plan index — NOT from the
	// attempt — so a unit reassigned after a node failure carries the same
	// id on its new node; Count is read-only against the replica, which
	// makes such re-execution idempotent.
	RunID string
	// Ranges are the node's pivot responsibilities under static: its group
	// of the plan, which the node's runners share one window over
	// (core.RunRanges). Empty for a stealing unit (Unit).
	Ranges []balance.Range
	// Sched names the schedule the batch comes from ("static", "stealing");
	// empty means static — the paper's one-shot binding. Strings rather
	// than enum ints travel on the wire so heterogeneous builds stay
	// compatible.
	Sched string
	// Workers is the node's runner count under stealing; non-positive falls
	// back to one runner per range (the static rule). Ignored under static,
	// where len(Ranges) is the count.
	Workers int
	// MemEdges is M per runner.
	MemEdges int
	// List requests triangle listing; the triples come back in the reply
	// (the paper's clients send lists back to the master, which
	// concatenates them sequentially).
	List bool
	// TraceSpan is the span context of a traced run: the master's dispatch
	// span id plus one (so the gob zero value keeps meaning "tracing
	// off" for masters predating tracing). A non-zero value asks the node
	// to record its calculation as spans and return them in
	// CountReply.Spans; the master re-parents them under its dispatch
	// span.
	TraceSpan int64
	// Unit is a stealing unit, nil under static — a pointer, so that a
	// static batch encodes exactly as it did before units existed.
	Unit *StealUnit
}

// StealUnit is one unit of a stealing run: the node's CountArgs.Workers
// runners share a window and are dealt a run of its cone blocks
// (mgt.RunDealt under DealConfig.Cone). The node keeps the window loaded
// after the batch and serves the next unit of the same window from it
// (DealConfig.Held).
type StealUnit struct {
	// Window is the store's entries [Lo, Hi) the runners share: the local
	// engine's window of P·M entries.
	Window balance.Range
	// Cone is the cone vertices [Lo, Hi) whose blocks the runners are dealt.
	Cone balance.Range
}

// CountReply carries a node's results back to the master.
type CountReply struct {
	Triangles uint64
	// Workers is the per-runner statistics (feeds Tables IV/VII and
	// Figures 6–8).
	Workers []core.WorkerStat
	// SourceIO is the node's I/O that is none of its runners' own: the
	// loads of the windows they share.
	SourceIO ioacct.Stats
	// CalcTime is the node's wall time for the calculation phase.
	CalcTime time.Duration
	// Triples is the binary triangle list (12 bytes per triangle) when
	// List was requested.
	Triples []byte
	// Spans is the node's recorded trace (position-independent wire form)
	// when CountArgs.TraceSpan requested tracing; nil otherwise. Roots
	// carry Parent -1 and are re-parented by the master's Merge.
	Spans []obs.WireSpan
}

// PingArgs checks liveness.
type PingArgs struct{}

// PingReply acknowledges a ping.
type PingReply struct {
	OK bool
}

// CancelArgs aborts an in-flight Count by its RunID. The cancelled Count
// RPC itself returns promptly (within one memory window per runner) with a
// cancellation error; Cancel only triggers it.
type CancelArgs struct {
	RunID string
}

// CancelReply reports whether the run was found still in flight.
type CancelReply struct {
	Found bool
}
