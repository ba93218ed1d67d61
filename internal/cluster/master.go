package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/rpc"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/core"
	"pdtl/internal/graph"
	"pdtl/internal/ioacct"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/orient"
	"pdtl/internal/sched"
)

// Config parameterizes a distributed run.
type Config struct {
	// GraphBase is the input store (oriented or not). Unoriented inputs
	// are oriented by the master first — "it is the responsibility of the
	// master to apply the degree-based order to the graph in question,
	// before sending it over the network" (Section IV-B1).
	GraphBase string
	// GraphName names the replicas on the clients; defaults to the base
	// name of GraphBase.
	GraphName string
	// Disk, when non-nil, is an already-open handle on the store GraphBase
	// names; Run uses it instead of re-opening (re-reading metadata and
	// the whole degree file). The public Graph handle passes its cached
	// oriented disk here, so repeated distributed runs pay the degree scan
	// once. The files GraphBase names are still read for replication.
	Disk *graph.Disk
	// Workers is P, the processors per node.
	Workers int
	// MemEdges is M per processor.
	MemEdges int
	// Sched selects the scheduler. Static pre-splits the global N·P-range
	// plan across nodes up front (the paper's Figure 1 configurations).
	// Stealing cuts the scan of the local engine's windows of P·M entries
	// into about Chunks·N·P units — a window and a run of its cone blocks —
	// that the master dispenses to nodes one at a time on demand: a node
	// that finishes its unit pulls the next one, so a fast node absorbs the
	// work a slow node would have stalled on, and a node keeps the window of
	// its last unit loaded, so the units of one window cost it one load.
	Sched sched.Mode
	// Chunks is K, the units per processor of the stealing scheduler;
	// non-positive selects sched.DefaultChunksPerWorker.
	Chunks int
	// UplinkBytesPerSec rate-limits the master's outgoing graph copies in
	// aggregate (0 = unlimited), modeling the shared NIC.
	UplinkBytesPerSec int64
	// MaxRetries bounds how many times one unit of failed work (a static
	// range group or a stealing chunk batch) may be reassigned to another
	// node before the run gives up with the joined node errors. Zero
	// selects DefaultMaxRetries; negative disables recovery entirely —
	// the first node failure aborts the run (the pre-fault-tolerance
	// behavior, useful as an ablation and for tests).
	MaxRetries int
	// HeartbeatInterval is how often the master pings each connected node
	// to detect partitioned or wedged workers; a crashed worker is caught
	// faster, by its TCP connection dying. After heartbeatMissLimit
	// consecutive missed pings the node's connection is closed, failing
	// its in-flight RPCs and triggering reassignment. Zero selects
	// DefaultHeartbeatInterval; negative disables the heartbeat.
	HeartbeatInterval time.Duration
	// List requests triangle listing; the master concatenates all nodes'
	// triples into ListPath sequentially.
	List bool
	// ListPath is the output file for List mode, published by rename
	// (graph.PublishTarget: a symlink's target is replaced, and a path that
	// is neither absent nor a regular file is refused before the run).
	ListPath string
	// Log, when non-nil, receives a structured warning for every node
	// failure the run detects (in addition to the final Result.Failures
	// report) — an operator watching the master's log sees the degradation
	// as it happens.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.GraphName == "" {
		c.GraphName = filepath.Base(c.GraphBase)
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MemEdges <= 0 {
		c.MemEdges = core.DefaultMemEdges
	}
	switch {
	case c.MaxRetries == 0:
		c.MaxRetries = DefaultMaxRetries
	case c.MaxRetries < 0:
		c.MaxRetries = 0 // fail-fast: recovery disabled
	}
	switch {
	case c.HeartbeatInterval == 0:
		c.HeartbeatInterval = DefaultHeartbeatInterval
	case c.HeartbeatInterval < 0:
		c.HeartbeatInterval = 0 // heartbeat disabled
	}
	return c
}

// NodeResult is one node's contribution to a run. Node 0 is the master
// itself (no copy).
type NodeResult struct {
	// Name is the node's self-reported label ("master" for node 0).
	Name string
	// Addr is the node's RPC address, or "local".
	Addr string
	// CopyTime is how long the graph replica took to stream to this node
	// (Table III's "avg copy time" inputs; zero for the master).
	CopyTime time.Duration
	// CopyBytes is the replica volume sent.
	CopyBytes int64
	// CalcTime is the node's busy time: the summed wall of the batches it
	// executed, measured by its driver on the master — for a remote node
	// each Count RPC, reply transfer included. Copying, and idling on the
	// dispenser for work that never came, are excluded. The run's CalcTime
	// is the max over nodes (the "struggler" rule of Section V-E3).
	CalcTime time.Duration
	// Triangles found by this node.
	Triangles uint64
	// Workers holds the node's per-runner statistics.
	Workers []core.WorkerStat
	// SourceIO is the node's I/O that is none of its runners' own: the
	// loads of the windows they share.
	SourceIO ioacct.Stats
}

// Result is the outcome of a distributed run.
type Result struct {
	// Triangles is the exact global count.
	Triangles uint64
	// Orientation describes the master's preprocessing (nil if the input
	// was already oriented).
	Orientation *orient.Result
	// Plan is the global N·P-range assignment.
	Plan balance.Plan
	// Nodes has one entry per node, master first.
	Nodes []NodeResult
	// CalcTime is the straggler node's calculation time.
	CalcTime time.Duration
	// TotalTime is orientation + distribution + calculation.
	TotalTime time.Duration
	// NetworkBytes is the total payload the master exchanged with clients
	// (graph replicas plus returned triangle lists) — the Θ(N·(P+|E|)+T)
	// traffic of Theorem IV.3.
	NetworkBytes int64
	// OrientedBase is the oriented store the run used.
	OrientedBase string
	// Failures lists every node failure the run detected and recovered
	// from, in detection order. A non-empty list on a successful run means
	// the run completed degraded: the failed nodes' work was reassigned to
	// the survivors (or run master-local) and the results are exact
	// regardless.
	Failures []Failure
}

// runSeq plus a per-process random token feed RunIDs for remote
// cancellation. The token keeps two masters sharing a worker from minting
// the same id (a bare per-process counter would collide and let one
// master's cancellation abort the other's run).
var (
	runSeq   atomic.Int64
	runToken = rand.Uint64()
)

// newRunID mints the run-level id, one per Run call.
func newRunID(graphName string) string {
	return fmt.Sprintf("%s#%x-%d", graphName, runToken, runSeq.Add(1))
}

// workID derives the per-work-unit RunID from the run id and the unit's
// global plan index. It is deliberately stable across reassignment: a
// retried unit carries the same id on its new node, so results are keyed
// by what is computed, not by which attempt computed it — and a Cancel for
// the unit reaches whichever node currently holds it. Re-execution is
// idempotent because Node.Count only reads the replica: a duplicate
// attempt (a partitioned node still computing a unit the master gave up
// on) produces identical bytes, and the master takes at most one result
// per unit — a failed driver contributes nothing, so global assembly by
// plan index stays exactly-once.
func workID(runID string, start int) string {
	return runID + "/" + strconv.Itoa(start)
}

// cancelDrainTimeout bounds how long a cancelled master waits for a
// worker's aborted Count RPC to drain; a wedged worker must not keep a
// cancelled master alive (closing the client kills the pending calls).
const cancelDrainTimeout = 10 * time.Second

// Run executes a distributed triangle count/listing with the master as node
// 0 and one client per address in workerAddrs. With no addresses it
// degrades to a purely local run through the same code path.
//
// The protocol is one loop under either schedule (Section IV-B): orient,
// plan, then one driver goroutine per node that readies its node (the
// remote ones dial, replicate, and start the heartbeat; the master's own
// slot is ready at once) and executes the batches the dispenser hands it,
// and finally one fold of counts and one concatenation of listings.
// Config.Sched only picks the plan, the units the dispenser hands out and
// its policy.
//
// Worker failure mid-run is survived, not fatal (DESIGN.md §9): a crashed,
// partitioned, or wedged node is detected (TCP error, or the heartbeat
// closing a silent connection), its batch goes back to the dispenser with
// the dead node excluded, and whichever surviving driver is idle first
// claims it — the master's own driver never exits while a batch is out, so
// it is the executor of last resort — bounded by Config.MaxRetries
// reassignments per batch. The exact count and the deterministic listing
// are unaffected, because work is keyed by global plan index and assembled
// exactly once; the detected failures are reported in Result.Failures. A
// run only fails when the retry budget is exhausted, the master's own
// engine errors, or ctx is cancelled — and then the error joins every
// node's failure rather than reporting just the first.
//
// Cancelling ctx aborts the whole protocol: the master's own runners stop
// within one memory window, in-flight graph copies stop at once (their
// connections are closed),
// and every client is told (via a Cancel RPC) to abandon its calculation.
// Run then returns ctx.Err().
func Run(ctx context.Context, cfg Config, workerAddrs []string) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if cfg.List {
		if cfg.ListPath == "" {
			return nil, fmt.Errorf("cluster: List requested without ListPath")
		}
		var err error
		if cfg.ListPath, err = graph.PublishTarget(cfg.ListPath); err != nil {
			return nil, err
		}
	}
	start := time.Now()

	// The whole distributed run is one cluster span; the drivers' copy and
	// dispatch spans (and, through the wire, the nodes' own spans) nest
	// under it via the context cursor.
	cur := obs.CursorFrom(ctx)
	clsp := cur.Begin(obs.SpanCluster)
	defer cur.End(clsp)
	cur.SetAttr(clsp, "nodes", int64(1+len(workerAddrs)))
	if cur.T != nil {
		ctx = obs.ContextWithCursor(ctx, cur.Child(clsp))
		cur = obs.CursorFrom(ctx)
	}

	d := cfg.Disk
	if d == nil {
		var err error
		if d, err = graph.Open(cfg.GraphBase); err != nil {
			return nil, err
		}
	}
	res := &Result{}
	orientedBase := cfg.GraphBase
	if !d.Meta.Oriented {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		orientedBase = cfg.GraphBase + ".oriented"
		osp := cur.Begin(obs.SpanOrient)
		ores, err := orient.Orient(cfg.GraphBase, orientedBase, cfg.Workers)
		cur.End(osp)
		if err != nil {
			return nil, err
		}
		res.Orientation = ores
		if d, err = graph.Open(orientedBase); err != nil {
			return nil, err
		}
	}
	res.OrientedBase = orientedBase

	nodes := 1 + len(workerAddrs)
	r := &run{
		cfg:     cfg,
		base:    orientedBase,
		format:  d.Meta.Format,
		runID:   newRunID(cfg.GraphName),
		limiter: NewLimiter(cfg.UplinkBytesPerSec),
		flog:    &failureLog{log: cfg.Log},
		args: CountArgs{
			GraphName: cfg.GraphName,
			MemEdges:  cfg.MemEdges,
			List:      cfg.List,
		},
	}
	// The schedule: the one place the two modes differ. Static is the
	// paper's N·P-range plan, balanced by in-degree for runners with
	// private windows of MemEdges entries and pre-split across nodes, each
	// group handed to its own slot. Stealing cuts the scan of the local
	// engine's windows into units (stealUnits) that every driver draws one
	// at a time — a node that finishes its unit pulls the next one, and the
	// master participates through the same dispenser, so its relative speed
	// is accounted for automatically.
	psp := cur.Begin(obs.SpanPlan)
	var err error
	if cfg.Sched == sched.Stealing {
		res.Plan, err = core.LocalPlan(d, orientedBase, core.Options{
			Workers:  cfg.Workers,
			MemEdges: cfg.MemEdges,
		})
		r.units = stealUnits(d, res.Plan, uint64(cfg.Workers)*uint64(cfg.MemEdges), sched.ChunksFor(nodes*cfg.Workers, cfg.Chunks))
		r.args.Sched, r.args.Workers = sched.Stealing.String(), cfg.Workers
		r.batch = 1
		r.disp = sched.NewDispenser(r.units)
	} else {
		res.Plan, err = core.PlanFor(d, orientedBase, core.Options{
			Workers:  nodes * cfg.Workers,
			MemEdges: cfg.MemEdges,
			Strategy: balance.InDegree,
		})
		var groups [][]unit
		for _, g := range res.Plan.Subdivide(nodes) {
			units := make([]unit, len(g))
			for i, rng := range g {
				units[i] = unit{rng: rng}
			}
			groups = append(groups, units)
		}
		r.batch = cfg.Workers
		r.disp = sched.NewPreassigned(groups)
	}
	res.Plan.Explain(cur, psp)
	cur.End(psp)
	if err != nil {
		return nil, err
	}

	// One driver per node, all concurrent: the master "starts the triangle
	// counting operations before the network transfer has finished", and a
	// remote node joins the drain as soon as its copy lands.
	res.Nodes = make([]NodeResult, nodes)
	execs := make([]executor, nodes)
	res.Nodes[0], execs[0] = NodeResult{Name: "master", Addr: "local"}, localExec{d: d, held: &heldWindow{}}
	for i, addr := range workerAddrs {
		res.Nodes[i+1], execs[i+1] = NodeResult{Addr: addr}, &remoteExec{run: r, slot: i + 1}
	}
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for slot := range execs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[slot] = r.drive(ctx, slot, execs[slot], &res.Nodes[slot]); errs[slot] != nil {
				// The run is lost: the healthy nodes must not keep
				// computing the rest of the plan.
				r.disp.Stop()
			}
		}()
	}
	wg.Wait()
	// A cancelled protocol reports the bare ctx.Err(), whichever node
	// surfaced the cancellation first.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	// Exactly-once, checked: the master's driver is never excluded from a
	// batch and only returns once nothing is out, so nothing can be left.
	if left := r.disp.Remaining(); left > 0 {
		return nil, fmt.Errorf("cluster: %d units of the plan were never executed", left)
	}

	// Fold. A lost node's completed batches still count — that is the whole
	// point of index-keyed, exactly-once assembly — and so do the replica
	// bytes pushed to it: even a failed copy crossed the master's uplink.
	res.Failures = r.flog.list()
	for _, n := range res.Nodes {
		res.Triangles += n.Triangles
		res.NetworkBytes += n.CopyBytes
		res.CalcTime = max(res.CalcTime, n.CalcTime)
	}
	if cfg.List {
		sort.Slice(r.segs, func(i, j int) bool { return r.segs[i].start < r.segs[j].start })
		ordered := make([][]byte, len(r.segs))
		for i, s := range r.segs {
			ordered[i] = s.data
			if s.slot != 0 {
				res.NetworkBytes += int64(len(s.data))
			}
		}
		// The nodes list in the store's ids; a ranked store's are mapped
		// back to the original ones here, once, for every node alike.
		ids, err := d.Perm()
		if err != nil {
			return nil, err
		}
		if err := writeTriples(cfg.ListPath, ordered, ids); err != nil {
			return nil, err
		}
	}
	res.TotalTime = time.Since(start)
	return res, nil
}

// run is the state one Run's drivers share.
type run struct {
	cfg     Config
	base    string       // the oriented store being replicated
	format  graph.Format // its encoding, which decides the files a copy streams
	runID   string
	disp    *sched.Dispenser[unit]
	units   []unit // the stealing units, by index; nil under static
	batch   int    // the units a driver claims at a time
	limiter *Limiter
	flog    *failureLog
	// args is the per-dispatch template: everything of a Count request but
	// the batch itself (RunID, Ranges or Unit, TraceSpan).
	args CountArgs

	segMu sync.Mutex
	segs  []tripleSeg
}

// unit is one piece of the work the dispenser hands out. Under static it is
// a range of the N·P-range plan, and a node's batch is its group of them.
// Under stealing it is a window of the local engine's P·M entries and a run
// of the cone blocks its scan deals, and a batch is one unit (stealUnits).
type unit struct {
	rng    balance.Range // static: the plan range; stealing: the window's entries
	cone   balance.Range // stealing: the cone vertices [Lo, Hi), whole blocks
	window int           // stealing: the window's index
	blocks int           // stealing: how many cone blocks the unit has
}

// stealUnits cuts the scan of every window of plan — ⌈|E*|/(P·M)⌉ windows of
// plan.MemEdges = P·M entries (core.LocalPlan) — into about k units of
// whole cone blocks, the blocks the node's runners are dealt (mgt.ConeRuns),
// in listing order.
func stealUnits(d *graph.Disk, plan balance.Plan, pm uint64, k int) []unit {
	var units []unit
	for _, r := range mgt.ConeRuns(d, plan.MemEdges, pm, k) {
		units = append(units, unit{rng: r.Window, cone: r.Cone, window: r.Index, blocks: r.Blocks})
	}
	return units
}

// tripleSeg is one batch's listing bytes, tagged with the global index of
// the batch's first unit so the master can concatenate segments in plan
// order — "concatenating the triangle listing (sequentially)". Index-ordered
// assembly makes the distributed listing deterministic even though
// batch→node assignment (under stealing, or after a failure) is not.
type tripleSeg struct {
	start int
	slot  int
	data  []byte
}

// executor is how a driver reaches its node: the master's own engine for
// slot 0, the RPC client for the rest.
type executor interface {
	// join readies the node to count, recording who it is and what its
	// replica cost in nr. An error means the node is lost before it held
	// any work.
	join(ctx context.Context, nr *NodeResult) error
	// count executes one batch; retries is how often the batch has been
	// reassigned so far.
	count(ctx context.Context, args *CountArgs, start, retries int) (*CountReply, error)
	close()
}

// drive is one node's driver: ready the node, then execute the batches the
// dispenser hands this slot until none can come anymore, folding every
// completed batch into nr.
//
// Failure contract: a nil error with a partial NodeResult means the node
// was lost but the run goes on — the failure is in the log, the in-flight
// batch is back in the dispenser with this node excluded, and the batches
// the node completed before dying stand. A non-nil error is fatal:
// cancellation, the master's own engine failing, or a batch exhausting its
// retry budget (with recovery disabled, MaxRetries 0, the first failure is
// fatal, restoring the fail-fast behavior).
func (r *run) drive(ctx context.Context, slot int, ex executor, nr *NodeResult) error {
	defer ex.close()
	if err := ex.join(ctx, nr); err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		r.flog.add(Failure{Node: nr.Name, Addr: nr.Addr, Slot: slot, Chunk: -1, Err: err.Error()})
		if r.cfg.MaxRetries <= 0 {
			return err
		}
		r.disp.Retire(slot)
		return nil
	}
	for {
		start, batch, retries := r.disp.NextBatch(ctx, r.batch, slot)
		if len(batch) == 0 {
			return ctx.Err()
		}
		args := r.args
		args.RunID = workID(r.runID, start)
		if r.units != nil {
			args.Unit = &StealUnit{Window: batch[0].rng, Cone: batch[0].cone}
		} else {
			for _, u := range batch {
				args.Ranges = append(args.Ranges, u.rng)
			}
		}
		began := time.Now()
		reply, err := ex.count(ctx, &args, start, retries)
		nr.CalcTime += time.Since(began)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if slot == 0 {
				// There is no more reliable executor to reassign the
				// master's own work to.
				return err
			}
			r.flog.add(Failure{
				Node: nr.Name, Addr: nr.Addr, Slot: slot,
				Chunk: start, Ranges: len(batch), Retries: retries, Err: err.Error(),
			})
			if retries+1 > r.cfg.MaxRetries {
				return fmt.Errorf("cluster: batch at plan index %d abandoned after %d reassignments: %w", start, retries, err)
			}
			// Put the batch back for the survivors — excluding this node,
			// whose driver exits right here — and keep what it finished.
			r.disp.Requeue(start, batch, retries+1, slot)
			return nil
		}
		nr.Workers = foldWorkerStats(nr.Workers, reply.Workers)
		nr.SourceIO = nr.SourceIO.Add(reply.SourceIO)
		nr.Triangles += reply.Triangles
		if r.cfg.List {
			r.segMu.Lock()
			r.segs = append(r.segs, tripleSeg{start: start, slot: slot, data: reply.Triples})
			r.segMu.Unlock()
		}
		r.disp.Done()
	}
}

// foldWorkerStats merges one batch's runner stats into a node's running
// totals by worker index. Batches execute sequentially on a node, so the
// per-chunk folding discipline of sched.Ledger applies verbatim per batch
// (wall sums, range hulls, chunk counts accumulate) — the rule itself lives
// in Ledger.FoldWorker.
func foldWorkerStats(dst []core.WorkerStat, batch []core.WorkerStat) []core.WorkerStat {
	for _, w := range batch {
		for len(dst) <= w.Worker {
			dst = append(dst, core.WorkerStat{Worker: len(dst)})
		}
		t := &dst[w.Worker]
		l := sched.Ledger{Worker: t.Worker, Chunks: t.Chunks, Lo: t.Range.Lo, Hi: t.Range.Hi, Stats: t.Stats}
		l.FoldWorker(w.Range.Lo, w.Range.Hi, w.Chunks, w.Stats)
		*t = core.WorkerStat{
			Worker: l.Worker,
			Range:  balance.Range{Lo: l.Lo, Hi: l.Hi},
			Chunks: l.Chunks,
			Stats:  l.Stats,
		}
	}
	return dst
}

// localExec is the master acting as node 0: always ready, and a batch runs
// on the engine directly through the same count the workers serve, with one
// held window for the run.
type localExec struct {
	d    *graph.Disk
	held *heldWindow
}

func (localExec) join(context.Context, *NodeResult) error { return nil }
func (localExec) close()                                  {}

func (e localExec) count(ctx context.Context, args *CountArgs, _, _ int) (*CountReply, error) {
	var reply CountReply
	if _, err := count(ctx, e.d, e.held, args, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// remoteExec drives one client over its RPC connection.
type remoteExec struct {
	*run
	slot int
	nc   *nodeConn
}

// join dials the node, replicates the graph to it, and hands liveness over
// to the heartbeat.
func (e *remoteExec) join(ctx context.Context, nr *NodeResult) error {
	nc, hello, err := dialNode(ctx, e.cfg, nr.Addr)
	if err != nil {
		return err
	}
	e.nc, nr.Name = nc, hello.Name
	if !hello.StreamCopy {
		// Its listener would take the replica stream for a broken RPC.
		return fmt.Errorf("cluster: node %s at %s predates replica streams (its Hello offers no stream copy); upgrade it", hello.Name, nr.Addr)
	}
	if e.units != nil && !hello.HeldWindows {
		// It would take a unit's empty Ranges for nothing to count.
		return fmt.Errorf("cluster: node %s at %s predates stealing units (its Hello offers no held windows); run it under -sched static or upgrade it", hello.Name, nr.Addr)
	}

	cur := obs.CursorFrom(ctx)
	copySpan := cur.Begin(obs.SpanCopy)
	copyStart := time.Now()
	// Keep a failed copy's bytes too: they crossed the master's uplink.
	nr.CopyBytes, err = e.copyGraph(ctx, nc.client, nr.Addr)
	cur.SetAttr(copySpan, "slot", int64(e.slot))
	cur.SetAttr(copySpan, "bytes", nr.CopyBytes)
	cur.End(copySpan)
	if err != nil {
		return fmt.Errorf("cluster: copy to %s: %w", nr.Addr, err)
	}
	nr.CopyTime = time.Since(copyStart)
	// Calculation phase: long-running Counts with no per-RPC deadline —
	// the heartbeat is the liveness signal from here on.
	nc.watch()
	return nil
}

// count ships one batch as a Count RPC wrapped in a dispatch span: a traced
// master asks the node for its spans and grafts them under the dispatch on
// return.
func (e *remoteExec) count(ctx context.Context, args *CountArgs, start, retries int) (*CountReply, error) {
	cur := obs.CursorFrom(ctx)
	dsp := cur.Begin(obs.SpanDispatch)
	cur.SetAttr(dsp, "slot", int64(e.slot))
	cur.SetAttr(dsp, "start", int64(start))
	cur.SetAttr(dsp, "ranges", int64(len(args.Ranges)))
	cur.SetAttr(dsp, "retries", int64(retries))
	if e.units != nil {
		cur.SetAttr(dsp, "window", int64(e.units[start].window))
		cur.SetAttr(dsp, "blocks", int64(e.units[start].blocks))
	}
	args.TraceSpan = traceSpanArg(cur, dsp)
	reply, err := countWithCancel(ctx, e.nc.client, e.nc.addr, args)
	if err == nil && cur.T != nil {
		cur.T.Merge(dsp, reply.Spans)
	}
	cur.End(dsp)
	return reply, err
}

func (e *remoteExec) close() {
	if e.nc != nil {
		e.nc.close()
	}
}

// countWithCancel issues one Count RPC, converting a ctx cancellation into
// the Cancel-and-drain dance.
func countWithCancel(ctx context.Context, client *rpc.Client, addr string, args *CountArgs) (*CountReply, error) {
	var reply CountReply
	count := client.Go("Node.Count", args, &reply, make(chan *rpc.Call, 1))
	select {
	case c := <-count.Done:
		if c.Error != nil {
			return nil, fmt.Errorf("cluster: count on %s: %w", addr, c.Error)
		}
		return &reply, nil
	case <-ctx.Done():
		// Tell the node to abandon the run (net/rpc multiplexes, so the
		// Cancel travels on the same connection while Count is pending),
		// then wait — bounded — for the aborted Count to drain so a
		// healthy node is idle by the time we report cancellation.
		client.Go("Node.Cancel", &CancelArgs{RunID: args.RunID}, &CancelReply{}, make(chan *rpc.Call, 1))
		select {
		case <-count.Done:
		case <-time.After(cancelDrainTimeout):
		}
		return nil, ctx.Err()
	}
}

// callCtx issues one RPC and honors ctx: on cancellation it returns
// ctx.Err() immediately, leaving the in-flight call to die with the
// connection (the driver closes the client on every return path).
func callCtx(ctx context.Context, client *rpc.Client, method string, args, reply any) error {
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	select {
	case c := <-call.Done:
		return c.Error
	case <-ctx.Done():
		return ctx.Err()
	}
}

// traceSpanArg encodes a dispatch span as CountArgs.TraceSpan: the span id
// plus one, so zero keeps meaning "tracing off" on the wire. A full slab
// (dsp == NoSpan) sends zero too — there is no room to merge the reply's
// spans anyway.
func traceSpanArg(cur obs.Cursor, dsp obs.SpanID) int64 {
	if cur.T == nil || dsp < 0 {
		return 0
	}
	return int64(dsp) + 1
}

// callCopy is callCtx under the copy phase's per-RPC deadline: the
// heartbeat does not run during the copy, so a node that wedges in
// BeginGraph or EndGraph is caught by the call missing copyTimeout instead.
func callCopy(ctx context.Context, client *rpc.Client, method string, args, reply any) error {
	cctx, cancel := context.WithTimeout(ctx, copyTimeout)
	defer cancel()
	return callCtx(cctx, client, method, args, reply)
}

// copyGraph replicates the store files to the client at addr —
// {meta, deg, adj} for a plain store, {meta, deg, cadj, cidx} for a
// compressed one — as one byte stream through the limiter
// (streamReplica), between a BeginGraph and an EndGraph RPC. Each transfer
// carries a fresh ownership token: if this master is superseded mid-copy (a
// retrying master presumed us dead), the node refuses the rest of our
// stream instead of interleaving it into the new transfer's files.
func (r *run) copyGraph(ctx context.Context, client *rpc.Client, addr string) (int64, error) {
	kinds := []FileKind{FileMeta, FileDeg, FileAdj}
	if r.format == graph.FormatCompressed {
		kinds = []FileKind{FileMeta, FileDeg, FileCAdj, FileCIdx}
	}
	token := fmt.Sprintf("%x-%d", runToken, runSeq.Add(1))
	if err := callCopy(ctx, client, "Node.BeginGraph", &BeginGraphArgs{Name: r.cfg.GraphName, Token: token, Kinds: kinds}, &struct{}{}); err != nil {
		return 0, err
	}
	sent, err := streamReplica(ctx, addr, r.base, token, kinds, r.limiter)
	if err != nil {
		return sent, err
	}
	var end EndGraphReply
	if err := callCopy(ctx, client, "Node.EndGraph", &EndGraphArgs{Token: token}, &end); err != nil {
		return sent, err
	}
	if end.BytesReceived != sent {
		return sent, fmt.Errorf("cluster: client received %d of %d bytes", end.BytesReceived, sent)
	}
	return sent, nil
}

// writeTriples concatenates the per-node triangle lists sequentially, the
// master's listing responsibility ("concatenating the triangle listing
// (sequentially)", Section IV-B2), renaming vertex u ids[u] in place when
// ids is non-nil.
func writeTriples(path string, triples [][]byte, ids []graph.Vertex) error {
	if ids != nil {
		for _, tp := range triples {
			for i := 0; i+graph.EntrySize <= len(tp); i += graph.EntrySize {
				v := binary.LittleEndian.Uint32(tp[i:])
				if int(v) >= len(ids) {
					return fmt.Errorf("cluster: a node listed vertex %d of a store of %d", v, len(ids))
				}
				binary.LittleEndian.PutUint32(tp[i:], ids[v])
			}
		}
	}
	// Published by rename: a reader, or a master stopped mid-write, never
	// sees a truncated listing at path.
	f, err := graph.CreateTemp(path)
	if err != nil {
		return err
	}
	for _, tp := range triples {
		if _, err := f.Write(tp); err != nil {
			graph.Discard(f)
			return err
		}
	}
	return graph.Publish(f, path)
}
