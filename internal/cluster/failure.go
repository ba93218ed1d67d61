// Fault tolerance for the distributed protocol (DESIGN.md §9): failure
// detection (per-RPC deadlines on the handshake, a lightweight heartbeat
// for partitioned or wedged nodes, and the TCP connection itself for
// crashed ones) plus the failure log a degraded-but-successful run reports
// through Result.Failures.

package cluster

import (
	"context"
	"log/slog"
	"net"
	"net/rpc"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// DefaultMaxRetries is how many times one unit of failed work (a
	// static range group or a stealing chunk batch) may be reassigned to
	// another node before the run gives up, when Config.MaxRetries is
	// zero. Two reassignments tolerate two distinct node deaths on the
	// same work unit — beyond that the cluster is degrading too fast for
	// the run to be worth finishing.
	DefaultMaxRetries = 2
	// DefaultHeartbeatInterval is the master→node ping period when
	// Config.HeartbeatInterval is zero.
	DefaultHeartbeatInterval = 2 * time.Second
	// heartbeatMissLimit scales the reply deadline of one outstanding
	// ping: a node whose ping goes unanswered for missLimit × interval is
	// declared dead. Detection latency is about (missLimit+1) × interval;
	// a node merely pausing (GC, CPU saturation, a large reply occupying
	// the connection) for less than missLimit intervals is never falsely
	// killed.
	heartbeatMissLimit = 3
	// dialTimeout bounds the TCP connect to a node; a partitioned address
	// must fail the dial, not hang the driver.
	dialTimeout = 10 * time.Second
	// helloTimeout is the per-RPC deadline on the handshake — the one call
	// issued before the heartbeat starts, so it needs its own bound.
	helloTimeout = 30 * time.Second
	// copyTimeout is the per-RPC deadline on the replica-transfer calls
	// (BeginGraph, each GraphChunk, EndGraph). The heartbeat does not run
	// during the copy — on a slow uplink pings would queue behind the
	// graph chunks monopolizing the connection and a healthy worker would
	// be declared dead — so a wedged node mid-copy is instead caught by
	// its current chunk RPC missing this (deliberately generous: even a
	// 10 KiB/s link moves a 256 KiB chunk in ~26 s) deadline.
	copyTimeout = 2 * time.Minute
)

// Failure records one detected node failure during a run. A run that
// recovers reports them in Result.Failures — partial degradation is
// observable instead of fatal; a run that cannot recover reports the
// underlying errors joined.
type Failure struct {
	// Node is the node's self-reported name ("" if it failed before the
	// handshake completed).
	Node string
	// Addr is the node's RPC address.
	Addr string
	// Slot is the node's index in the run (the master is 0).
	Slot int
	// Chunk is the global plan index of the failed work unit's first
	// range: a chunk batch under stealing, a range group under static
	// recovery. -1 when the node failed outside a calculation — dial,
	// handshake, or replica copy.
	Chunk int
	// Ranges is how many plan ranges the failed work unit held (0 for
	// dial/copy failures).
	Ranges int
	// Retries is how many times the work unit had already been reassigned
	// when this failure happened (0 for a first failure).
	Retries int
	// Err is the failure's error text.
	Err string
	// Time is when the master detected the failure.
	Time time.Time
}

// failureLog is the run's thread-safe failure accumulator. With a logger
// attached (Config.Log) every detected failure is also warned about the
// moment it happens, not just reported in Result.Failures at the end.
type failureLog struct {
	log *slog.Logger
	mu  sync.Mutex
	fs  []Failure
}

func (l *failureLog) add(f Failure) {
	f.Time = time.Now()
	l.mu.Lock()
	l.fs = append(l.fs, f)
	l.mu.Unlock()
	if l.log != nil {
		l.log.Warn("cluster node failure",
			"node", f.Node, "addr", f.Addr, "slot", f.Slot,
			"chunk", f.Chunk, "ranges", f.Ranges, "retries", f.Retries,
			"err", f.Err)
	}
}

func (l *failureLog) list() []Failure {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Failure(nil), l.fs...)
}

// monitoredConn wraps a node connection and records when bytes last
// arrived from the node. The heartbeat consults it before declaring a
// node dead: a ping whose reply is queued behind a multi-second transfer
// (net/rpc serializes replies, so a large listing reply delays the ping's)
// still moves bytes constantly, while a partitioned or wedged node moves
// none — read activity, not ping latency, is the honest liveness signal.
type monitoredConn struct {
	net.Conn
	lastRead atomic.Int64 // unix nanos of the last successful read
}

func (c *monitoredConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead.Store(time.Now().UnixNano())
	}
	return n, err
}

func (c *monitoredConn) sinceRead() time.Duration {
	return time.Duration(time.Now().UnixNano() - c.lastRead.Load())
}

// startHeartbeat pings the node every interval on the shared connection
// (net/rpc multiplexes, so pings travel alongside a long-running Count).
// One ping is outstanding at a time; the node is declared dead — client
// closed, failing every pending RPC, which converts a silent partition or
// a wedged worker into an ordinary RPC error the drivers already recover
// from — only when the ping has gone unanswered for heartbeatMissLimit ×
// interval AND no bytes have arrived from the node for that same window.
// The activity check is what keeps a healthy node streaming a large
// listing reply (which delays the ping reply behind it, possibly for many
// intervals) alive: its connection is never silent. A crashed worker is
// detected faster, by its TCP connection dying on its own. Non-positive
// interval disables the heartbeat (returns a no-op stop).
func startHeartbeat(client *rpc.Client, conn *monitoredConn, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	window := heartbeatMissLimit * interval
	stopCh := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-tick.C:
			}
			call := client.Go("Node.Ping", &PingArgs{}, &PingReply{}, make(chan *rpc.Call, 1))
		await:
			for {
				deadline := time.NewTimer(window)
				select {
				case c := <-call.Done:
					deadline.Stop()
					if c.Error != nil {
						// The connection is already dead (rpc.ErrShutdown):
						// pending calls have failed on their own; nothing
						// left to watch.
						return
					}
					break await
				case <-deadline.C:
					if conn.sinceRead() < window {
						// The reply is late but bytes are flowing — a
						// large transfer ahead of it in the pipe, not a
						// dead node. Keep waiting.
						continue
					}
					client.Close()
					return
				case <-stopCh:
					deadline.Stop()
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(stopCh) }) }
}

// nodeConn is one dialed node: the RPC client plus its heartbeat monitor.
type nodeConn struct {
	addr   string
	client *rpc.Client
	conn   *monitoredConn
	hb     time.Duration
	stopHB func()
}

// dialNode connects to a node with a bounded dial and performs the
// handshake under its own per-RPC deadline. The heartbeat is NOT started
// here: the copy phase monopolizes the connection with graph chunks
// (pings behind them would miss on slow uplinks) and is protected by
// per-RPC copyTimeout deadlines instead — callers invoke watch() when
// they enter the calculation phase, whose long-running Counts have no
// deadline of their own. The caller must close() the returned conn on
// every path.
func dialNode(ctx context.Context, cfg Config, addr string) (*nodeConn, *HelloReply, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, nil, &nodeError{addr: addr, op: "dial", err: err}
	}
	mc := &monitoredConn{Conn: conn}
	mc.lastRead.Store(time.Now().UnixNano())
	client := rpc.NewClient(mc)
	helloCtx, cancel := context.WithTimeout(ctx, helloTimeout)
	defer cancel()
	var hello HelloReply
	if err := callCtx(helloCtx, client, "Node.Hello", &HelloArgs{}, &hello); err != nil {
		client.Close()
		return nil, nil, &nodeError{addr: addr, op: "hello", err: err}
	}
	return &nodeConn{addr: addr, client: client, conn: mc, hb: cfg.HeartbeatInterval, stopHB: func() {}}, &hello, nil
}

// watch starts the liveness heartbeat; call it once, when the connection
// enters its calculation phase. Idempotent close() remains safe either way.
func (c *nodeConn) watch() {
	c.stopHB = startHeartbeat(c.client, c.conn, c.hb)
}

func (c *nodeConn) close() {
	c.stopHB()
	c.client.Close()
}

// nodeError wraps a node-level failure with its address and operation, so
// joined error lists name every failing node.
type nodeError struct {
	addr string
	op   string
	err  error
}

func (e *nodeError) Error() string { return "cluster: " + e.op + " " + e.addr + ": " + e.err.Error() }
func (e *nodeError) Unwrap() error { return e.err }
