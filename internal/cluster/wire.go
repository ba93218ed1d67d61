// Package cluster implements PDTL's distributed framework (Section IV-B,
// Figure 1): a master orients the graph once, replicates the oriented store
// to every client node, assigns each node its processors' contiguous edge
// ranges (the configurations C_{i,j} of Figure 1), and atomically sums the
// returned triangle counts.
//
// Transport is net/rpc over TCP (stdlib gob encoding). Graph bytes travel
// in chunked RPCs through an optional token-bucket uplink limiter that
// models the shared NIC of the paper's EC2 experiments, so that average
// copy time grows with node count as in Table III.
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

// FileKind identifies which store file a chunk belongs to.
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
}

// BeginGraphArgs starts a graph transfer.
type BeginGraphArgs struct {
	// Name is the dataset name; the node stores the copy under it.
	Name string
	// Token identifies this transfer: the chunks and EndGraph that follow
	// must carry it. A later BeginGraph supersedes the transfer and
	// invalidates the token, so a superseded master (presumed dead, but
	// possibly just slow) has its stale in-flight chunks rejected instead
	// of interleaved into the new master's files.
	Token string
	// Kinds lists the file kinds this transfer will stream; empty means the
	// plain-store triple {meta, deg, adj} (masters predating the compressed
	// format).
	Kinds []FileKind
}

// ChunkArgs carries one chunk of one store file.
type ChunkArgs struct {
	// Token must match the BeginGraph that opened the transfer.
	Token string
	Kind  FileKind
	Data  []byte
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
	// Ranges are the node's pivot responsibilities: its group of the static
	// plan, or one batch of the master's global chunk list under stealing.
	// What the node's runners do with them is core.RunRanges's business —
	// share one window over them (Scan auto), or one runner per range (a
	// named Scan).
	Ranges []balance.Range
	// Sched names the schedule the ranges come from ("static", "stealing");
	// empty means static — the paper's one-shot binding. A node needs it
	// for a stealing listing, which it assembles chunk by chunk. Strings
	// travel on the wire for the same compatibility reason as Scan/Kernel.
	Sched string
	// Workers is the node's runner count under stealing; non-positive falls
	// back to one runner per range (the static rule). Ignored under static,
	// where len(Ranges) is the count.
	Workers int
	// MemEdges is M per runner.
	MemEdges int
	// BufBytes is the runner scan buffer size.
	BufBytes int
	// Scan names the node's scan source ("auto", "buffered" or "shared");
	// empty means auto. Strings rather than enum ints travel on the wire so
	// heterogeneous builds stay compatible; a name this node does not know
	// — "mem", say, which older builds offered — fails the batch with an
	// error naming the accepted sources.
	Scan string
	// Kernel names the node's cone routine ("merge"); empty means the
	// default, mark-and-probe ("auto"). Any other name — one a removed kernel
	// used to answer to, say — fails the batch with an error naming it.
	Kernel string
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
}

// CountReply carries a node's results back to the master.
type CountReply struct {
	Triangles uint64
	// Workers is the per-runner statistics (feeds Tables IV/VII and
	// Figures 6–8).
	Workers []core.WorkerStat
	// SourceIO is the I/O the node's scan source performed on its own
	// behalf (the loads of the windows its workers share, or shared
	// broadcast scans).
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
