package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// Node is the client-side RPC service of the PDTL protocol: it receives a
// replica of the oriented graph, runs the batches the master sends on its
// local copy — the edge ranges of a static group, or the cone blocks of a
// stealing unit against a window it keeps between batches — and returns
// counts (and, for listing, the triangle triples) to the master.
type Node struct {
	name    string
	workDir string
	workers int

	mu       sync.Mutex
	incoming map[FileKind]*os.File
	curName  string
	curToken string
	received int64
	// disks caches the received graphs per name: the opened store and the
	// window its stealing units were last dealt against. The stealing
	// master sends many Count batches per run; without the cache every
	// batch would re-read the replica's metadata and whole degree file, and
	// load its window again. A Disk holds no open file descriptors and a
	// held window only memory, so entries need no teardown; a re-received
	// graph (BeginGraph, EndGraph) drops its stale entry and bumps diskGen
	// so an open that was racing the re-replication cannot re-poison the
	// cache with the old copy's handle.
	disks   map[string]*replica
	diskGen map[string]int
	// runs maps the RunID of every in-flight Count to its cancel func, so
	// a master's Cancel RPC (or a server shutdown) can abort it mid-run.
	runs map[string]context.CancelFunc
	// cancelledRuns tombstones RunIDs whose Cancel arrived before the
	// Count registered (net/rpc serves each request in its own goroutine,
	// so a short-deadline master can race the two): a late-registering
	// Count sees its tombstone and aborts instead of computing the whole
	// run uncancellably.
	cancelledRuns map[string]struct{}
}

// replica is a received graph as a node serves it: the opened store, and
// the window the stealing units of its last run were dealt against — one
// window of P·M entries at most, kept until the graph is replaced.
type replica struct {
	d    *graph.Disk
	held heldWindow
}

// heldWindow is a window kept between Count batches (mgt.DealConfig.Held).
// Batches of the window it holds share it read-only; a batch of another
// window has it to itself while it loads its own into it.
type heldWindow struct {
	mu sync.RWMutex
	w  mgt.Window
}

// run calls fn with h's window for a batch of the window win of d: shared,
// if h holds that window already, else alone, to load it. reused reports
// whether the window was held.
func (h *heldWindow) run(d *graph.Disk, win balance.Range, fn func(*mgt.Window) error) (reused bool, err error) {
	h.mu.RLock()
	if h.w.Holds(d, win) {
		defer h.mu.RUnlock()
		return true, fn(&h.w)
	}
	h.mu.RUnlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.w.Holds(d, win), fn(&h.w)
}

// maxCancelTombstones bounds cancelledRuns (entries whose Count already
// finished are never claimed); past the bound the set is simply cleared —
// losing a tombstone only costs one wasted (not incorrect) run.
const maxCancelTombstones = 1024

// NewNode creates a node that stores graph replicas under workDir. workers
// is advertised to the master as the node's processor count; non-positive
// means "decided by the master's CountArgs".
func NewNode(name, workDir string, workers int) *Node {
	return &Node{name: name, workDir: workDir, workers: workers}
}

// base returns the node-local store base path for a dataset name.
func (n *Node) base(name string) string {
	return filepath.Join(n.workDir, filepath.Base(name))
}

// Hello implements the handshake RPC.
func (n *Node) Hello(args *HelloArgs, reply *HelloReply) error {
	reply.Name = n.name
	reply.MaxWorkers = n.workers
	reply.HeldWindows = true
	return nil
}

// Ping implements the liveness RPC.
func (n *Node) Ping(args *PingArgs, reply *PingReply) error {
	reply.OK = true
	return nil
}

// BeginGraph opens the three replica files for writing. A transfer that is
// still "in progress" when a new one begins is a transfer whose master died
// or was partitioned mid-copy: the new transfer supersedes it — the stale
// files are closed and removed, and the old transfer's token is
// invalidated, so if its master turns out to be merely slow rather than
// dead, its stale in-flight chunks are rejected (not interleaved into the
// new files) and it fails cleanly.
func (n *Node) BeginGraph(args *BeginGraphArgs, reply *struct{}) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.incoming != nil {
		n.abortLocked()
	}
	base := n.base(args.Name)
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	kinds := args.Kinds
	if len(kinds) == 0 {
		kinds = []FileKind{FileMeta, FileDeg, FileAdj}
	}
	n.incoming = make(map[FileKind]*os.File, len(kinds))
	for _, kind := range kinds {
		path, err := replicaPath(base, kind)
		if err != nil {
			n.abortLocked()
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			n.abortLocked()
			return err
		}
		n.incoming[kind] = f
	}
	// Drop the other encoding's files from a previous replica of this
	// name: the metadata decides which encoding is read, but a store
	// switching formats must not leave the stale encoding behind.
	for _, kind := range []FileKind{FileAdj, FileCAdj, FileCIdx} {
		if _, ok := n.incoming[kind]; !ok {
			if path, err := replicaPath(base, kind); err == nil {
				os.Remove(path)
			}
		}
	}
	// The os.Create calls above truncated the replica's files, so a Disk
	// (and the window held of it) cached against the previous copy is stale
	// NOW — not at EndGraph. A
	// copy that fails partway must not leave the old handle cached over
	// the mangled files (a later Count would read new bytes through old
	// metadata); dropping the entry here means any Count racing or
	// following a failed transfer gets an honest open error instead, and
	// the generation bump keeps a graph.Open that started before this
	// point from re-poisoning the cache with its doomed handle.
	delete(n.disks, args.Name)
	if n.diskGen == nil {
		n.diskGen = make(map[string]int)
	}
	n.diskGen[args.Name]++
	n.curName = args.Name
	n.curToken = args.Token
	n.received = 0
	return nil
}

// replicaPath maps a transfer file kind to its path under a replica base.
func replicaPath(base string, kind FileKind) (string, error) {
	switch kind {
	case FileMeta:
		return graph.MetaPath(base), nil
	case FileDeg:
		return graph.DegPath(base), nil
	case FileAdj:
		return graph.AdjPath(base), nil
	case FileCAdj:
		return graph.CAdjPath(base), nil
	case FileCIdx:
		return graph.CIdxPath(base), nil
	}
	return "", fmt.Errorf("cluster: unknown file kind %q", kind)
}

// GraphChunk appends one chunk to a replica file.
func (n *Node) GraphChunk(args *ChunkArgs, reply *struct{}) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.incoming == nil {
		return fmt.Errorf("cluster: node %s: no transfer in progress", n.name)
	}
	if args.Token != n.curToken {
		return fmt.Errorf("cluster: node %s: transfer superseded", n.name)
	}
	f, ok := n.incoming[args.Kind]
	if !ok {
		return fmt.Errorf("cluster: node %s: unknown file kind %q", n.name, args.Kind)
	}
	k, err := f.Write(args.Data)
	n.received += int64(k)
	return err
}

// EndGraph finalizes a transfer.
func (n *Node) EndGraph(args *EndGraphArgs, reply *EndGraphReply) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.incoming == nil {
		return fmt.Errorf("cluster: node %s: no transfer in progress", n.name)
	}
	if args.Token != n.curToken {
		return fmt.Errorf("cluster: node %s: transfer superseded", n.name)
	}
	var firstErr error
	for _, f := range n.incoming {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	n.incoming = nil
	// The replica just changed on disk; a cached handle on the old copy
	// (metadata, degree index) is stale, and any graph.Open racing this
	// transfer read old files — the generation bump keeps its result out
	// of the cache.
	delete(n.disks, n.curName)
	if n.diskGen == nil {
		n.diskGen = make(map[string]int)
	}
	n.diskGen[n.curName]++
	reply.BytesReceived = n.received
	return firstErr
}

// openReplica opens (or returns the cached entry of) a received graph.
// The open runs outside the node mutex (it reads the whole degree file),
// so the insert re-checks the replica generation: a straggler that opened
// the pre-replication copy returns it for its own doomed run but never
// caches it.
func (n *Node) openReplica(name string) (*replica, error) {
	n.mu.Lock()
	if r, ok := n.disks[name]; ok {
		n.mu.Unlock()
		return r, nil
	}
	gen := n.diskGen[name]
	n.mu.Unlock()
	d, err := graph.Open(n.base(name))
	if err != nil {
		return nil, err
	}
	r := &replica{d: d}
	n.mu.Lock()
	if n.diskGen[name] == gen {
		if n.disks == nil {
			n.disks = make(map[string]*replica)
		}
		n.disks[name] = r
	}
	n.mu.Unlock()
	return r, nil
}

func (n *Node) abortLocked() {
	for _, f := range n.incoming {
		f.Close()
		os.Remove(f.Name())
	}
	n.incoming = nil
}

// Count runs the node's calculation phase against the local replica: a
// static group of ranges, or one stealing unit against the window the node
// holds (see CountArgs). When args.RunID is set the run is
// registered for cancellation: a Cancel RPC with the same id (or a server
// shutdown) makes every runner abort within one memory window and Count
// return the cancellation error.
//
// Count is idempotent: it only reads the replica, so re-executing the same
// work unit — on this node or another — after a presumed failure produces
// byte-identical results. The master's recovery layer leans on this: a
// reassigned unit keeps its RunID, and at most one result per unit is ever
// taken (a failed attempt contributes nothing).
func (n *Node) Count(args *CountArgs, reply *CountReply) error {
	start := time.Now()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A traced master asks for spans back: record the node's calculation
	// into a local trace (the engine's cursor plumbing picks it up through
	// the context) and export it in wire form. The master re-parents the
	// node.count root under its dispatch span.
	var tr *obs.Trace
	rootSpan := obs.NoSpan
	if args.TraceSpan != 0 {
		tr = obs.NewTrace(0)
		rootSpan = tr.Begin(obs.SpanNodeCount, obs.NoSpan)
		ctx = obs.ContextWithCursor(ctx, obs.Cursor{T: tr, Span: rootSpan, Worker: -1})
	}
	if args.RunID != "" {
		n.mu.Lock()
		if _, dead := n.cancelledRuns[args.RunID]; dead {
			delete(n.cancelledRuns, args.RunID)
			n.mu.Unlock()
			return context.Canceled
		}
		if n.runs == nil {
			n.runs = make(map[string]context.CancelFunc)
		}
		n.runs[args.RunID] = cancel
		n.mu.Unlock()
		defer func() {
			n.mu.Lock()
			delete(n.runs, args.RunID)
			n.mu.Unlock()
		}()
	}
	rep, err := n.openReplica(args.GraphName)
	if err != nil {
		return fmt.Errorf("cluster: node %s: open replica: %w", n.name, err)
	}
	held, err := count(ctx, rep.d, &rep.held, args, reply)
	if err != nil {
		return err
	}
	reply.CalcTime = time.Since(start)
	if tr != nil {
		tr.SetAttr(rootSpan, "ranges", int64(len(args.Ranges)))
		tr.SetAttr(rootSpan, "triangles", int64(reply.Triangles))
		if held {
			tr.SetAttr(rootSpan, "held", 1)
		}
		tr.End(rootSpan)
		reply.Spans = tr.Export()
	}
	return nil
}

// count is the calculation phase itself, shared by the worker's Count RPC
// and the master's own node-0 executor: run args on the oriented store d —
// a static group through core.RunRanges, a stealing unit against the window
// held — and fill reply with the per-runner stats, the triangle count and,
// for a listing, the triples in the batch's listing order. held reports
// whether a unit found its window held.
func count(ctx context.Context, d *graph.Disk, held *heldWindow, args *CountArgs, reply *CountReply) (bool, error) {
	scanKind, err := scan.ParseSource(args.Scan)
	if err != nil {
		return false, err
	}
	kernelKind, err := mgt.ParseKernel(args.Kernel)
	if err != nil {
		return false, err
	}
	schedMode, err := sched.ParseMode(args.Sched)
	if err != nil {
		return false, err
	}
	if args.Unit != nil {
		if err := CheckSchedule(sched.Stealing, scanKind); err != nil {
			return false, err
		}
		return countUnit(ctx, d, held, args, kernelKind, reply)
	}
	// One runner per range, or — from a master that predates stealing
	// units and sends a stealing batch as ranges — args.Workers of them.
	workers := len(args.Ranges)
	if schedMode == sched.Stealing && args.Workers > 0 {
		workers = args.Workers
	}
	opt := core.Options{
		Workers:  workers,
		MemEdges: args.MemEdges,
		Scan:     scanKind,
		Kernel:   kernelKind,
	}
	var triples bytes.Buffer
	if args.List {
		opt.Out = &triples
	}
	calc, err := core.RunRanges(ctx, d, args.Ranges, opt)
	if err != nil {
		return false, err
	}
	reply.Workers, reply.SourceIO = calc.Workers, calc.SourceIO
	for _, w := range reply.Workers {
		reply.Triangles += w.Stats.Triangles
	}
	reply.Triples = triples.Bytes()
	return false, nil
}

// countUnit runs one stealing unit: args.Workers runners dealt the cone
// blocks of args.Unit.Cone against the window args.Unit.Window — the one
// held, if it is that window, else loaded into it for the units that follow.
func countUnit(ctx context.Context, d *graph.Disk, held *heldWindow, args *CountArgs, kernel mgt.KernelKind, reply *CountReply) (bool, error) {
	workers, win := max(args.Workers, 1), args.Unit.Window
	cfg := mgt.DealConfig{Workers: workers, MemEdges: args.MemEdges, Kernel: kernel, Cone: args.Unit.Cone}
	var triples bytes.Buffer
	if args.List {
		cfg.Listing = mgt.NewListing(&triples, "", workers, nil)
	}
	var dealt mgt.Dealt
	reused, err := held.run(d, win, func(w *mgt.Window) (err error) {
		cfg.Held = w
		dealt, err = mgt.RunDealt(ctx, d, []balance.Range{win}, cfg)
		return err
	})
	if cfg.Listing != nil {
		if cerr := cfg.Listing.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return reused, err
	}
	reply.SourceIO = dealt.WindowIO
	for i, st := range dealt.Runners {
		reply.Workers = append(reply.Workers, core.WorkerStat{Worker: i, Range: win, Chunks: 1, Stats: st})
		reply.Triangles += st.Triangles
	}
	reply.Triples = triples.Bytes()
	return reused, nil
}

// Cancel aborts the in-flight Count registered under args.RunID. If the
// Count has not registered yet, the id is tombstoned so the registration
// aborts on arrival — without this, a Cancel racing ahead of its Count
// would be lost and the run would compute to completion uncancellably.
func (n *Node) Cancel(args *CancelArgs, reply *CancelReply) error {
	n.mu.Lock()
	cancel, ok := n.runs[args.RunID]
	if !ok && args.RunID != "" {
		if n.cancelledRuns == nil {
			n.cancelledRuns = make(map[string]struct{})
		}
		if len(n.cancelledRuns) >= maxCancelTombstones {
			clear(n.cancelledRuns)
		}
		n.cancelledRuns[args.RunID] = struct{}{}
	}
	n.mu.Unlock()
	if ok {
		cancel()
	}
	reply.Found = ok
	return nil
}

// cancelActive aborts every in-flight Count; used by Server.Close so a
// worker shutdown does not leave runners computing for a master that will
// never hear the answer.
func (n *Node) cancelActive() {
	n.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(n.runs))
	for _, c := range n.runs {
		cancels = append(cancels, c)
	}
	n.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// Server wraps a Node in an rpc.Server bound to a listener.
type Server struct {
	Node *Node
	lis  net.Listener
	rpc  *rpc.Server

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Serve starts serving the node's RPCs on lis in a background goroutine and
// returns immediately. Use Close to stop.
func Serve(node *Node, lis net.Listener) (*Server, error) {
	return serveRcvr(node, node, lis)
}

// serveRcvr registers rcvr as the "Node" RPC service while lifecycle
// operations (cancellation on Close) act on node. Production callers pass
// the node twice (via Serve); the chaos tests pass a wrapper that embeds
// *Node and overrides individual RPCs to inject mid-run failures.
func serveRcvr(rcvr any, node *Node, lis net.Listener) (*Server, error) {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Node", rcvr); err != nil {
		return nil, err
	}
	s := &Server{Node: node, lis: lis, rpc: srv, conns: make(map[net.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// Listen starts a node server on addr ("host:port"; ":0" picks a free
// port).
func Listen(node *Node, addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(node, lis)
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			s.rpc.ServeConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Addr reports the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close stops accepting, cancels the node's in-flight calculations, and
// closes live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.Node.cancelActive()
	err := s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}
