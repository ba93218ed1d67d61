// Chaos tests: kill (or wedge) a worker mid-run and assert the distributed
// protocol still produces the exact count and the same order-normalized
// listing as a single-node baseline, with the failure visible in
// Result.Failures. The chaos node is a real RPC server whose handlers
// close their own server mid-call — the in-process equivalent of
// SIGKILLing a pdtl-worker (the CI fault-injection job does the real
// thing).
//
// Every scenario runs under both schedules through one table (TestChaos):
// the single driver has one failure path, and the table is what shows it
// behaves the same whether the dispenser pre-assigns or lets nodes steal.

package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/mgt"
	"pdtl/internal/sched"
)

// chaosNode wraps a real Node and injects failures: it can kill its own
// server on the k-th Count or GraphChunk RPC (a crash mid-calculation or
// mid-copy), or wedge — block Count and all later Pings forever, the
// silent-partition case only the heartbeat can detect.
type chaosNode struct {
	*Node
	srv         atomic.Pointer[Server]
	killAtCount int64
	killAtChunk int64
	atChunk     func() // non-nil: runs at the killAtChunk-th chunk instead of the kill
	counts      atomic.Int64
	chunks      atomic.Int64
	hangCount   chan struct{} // non-nil: Count (and subsequent Pings) block until closed
	hung        atomic.Bool
}

func (c *chaosNode) kill() {
	if s := c.srv.Load(); s != nil {
		s.Close()
	}
}

func (c *chaosNode) Count(args *CountArgs, reply *CountReply) error {
	if c.hangCount != nil {
		c.counts.Add(1)
		c.hung.Store(true)
		<-c.hangCount
		return fmt.Errorf("chaos: wedged")
	}
	if n := c.counts.Add(1); c.killAtCount > 0 && n == c.killAtCount {
		c.kill()
	}
	return c.Node.Count(args, reply)
}

func (c *chaosNode) GraphChunk(args *ChunkArgs, reply *struct{}) error {
	if n := c.chunks.Add(1); c.killAtChunk > 0 && n == c.killAtChunk {
		if c.atChunk != nil {
			c.atChunk()
		} else {
			c.kill()
		}
	}
	return c.Node.GraphChunk(args, reply)
}

func (c *chaosNode) Ping(args *PingArgs, reply *PingReply) error {
	if c.hangCount != nil && c.hung.Load() {
		<-c.hangCount
		return fmt.Errorf("chaos: wedged")
	}
	return c.Node.Ping(args, reply)
}

// startChaosWorker serves a chaos node on loopback and returns its address.
func startChaosWorker(t *testing.T, c *chaosNode) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serveRcvr(c, c.Node, lis)
	if err != nil {
		t.Fatal(err)
	}
	c.srv.Store(srv)
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// normalizeListing decodes a listing file and sorts the triples — the
// order-normalized form chaos runs are compared in (recovery may legally
// permute segment execution, never the triangle set).
func normalizeListing(t *testing.T, path string) [][3]uint32 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tris, err := mgt.ReadTriangles(f)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(tris, func(i, j int) bool {
		if tris[i][0] != tris[j][0] {
			return tris[i][0] < tris[j][0]
		}
		if tris[i][1] != tris[j][1] {
			return tris[i][1] < tris[j][1]
		}
		return tris[i][2] < tris[j][2]
	})
	return tris
}

// chaosFixture is what the scenarios of one schedule share: a skewed graph,
// its exact count, a single-node reference listing, and the run
// configuration. Under stealing a remote node only ever sees a batch if the
// master is still draining when its replica lands (on a small box the
// in-process workers join late, starved by the master's compute), so that
// fixture is sized — tiny memory budget, many chunks — to keep the master
// busy for many times the join latency; scenarios that need the fault to
// fire mid-calculation additionally retry with a fresh cluster until it did.
type chaosFixture struct {
	cfg  Config
	want uint64
	ref  [][3]uint32
	dir  string
}

func newChaosFixture(t *testing.T, mode sched.Mode) *chaosFixture {
	t.Helper()
	scale, seed := uint(11), int64(21)
	cfg := Config{Workers: 2, MemEdges: 256}
	if mode == sched.Stealing {
		scale, seed = 12, 29
		cfg = Config{Workers: 1, MemEdges: 32, Sched: sched.Stealing, Chunks: 32}
	}
	g, err := gen.RMAT(scale, 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	fx := &chaosFixture{cfg: cfg, want: baseline.Forward(g), dir: t.TempDir()}
	fx.cfg.GraphBase = writeStore(t, g, "chaos-"+mode.String())
	refPath := filepath.Join(fx.dir, "ref.bin")
	res, err := Run(context.Background(), Config{
		GraphBase: fx.cfg.GraphBase, Workers: 2, MemEdges: 4096, List: true, ListPath: refPath,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != fx.want {
		t.Fatalf("single-node baseline = %d, want %d", res.Triangles, fx.want)
	}
	fx.ref = normalizeListing(t, refPath)
	return fx
}

// listing returns the fixture's configuration with listing into a fresh
// file.
func (fx *chaosFixture) listing(name string) Config {
	cfg := fx.cfg
	cfg.List, cfg.ListPath = true, filepath.Join(fx.dir, name)
	return cfg
}

// runChecked is Run plus the leak check every chaos run gets: once the run
// has returned (and release, if any, has unwedged what the scenario wedged)
// the goroutine count must come back to its pre-run level — no driver,
// heartbeat, or RPC reader may outlive Run, however the run ended.
func runChecked(t *testing.T, ctx context.Context, cfg Config, addrs []string, release func()) (*Result, error) {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := Run(ctx, cfg, addrs)
	if release != nil {
		release()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d after the run, %d before\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
	return res, err
}

// assertExact checks a (possibly degraded) run against the fixture: exact
// count and, when it listed, the same order-normalized triangle set.
func (fx *chaosFixture) assertExact(t *testing.T, res *Result, err error, cfg Config) {
	t.Helper()
	if err != nil {
		t.Fatalf("run with a failing worker failed: %v", err)
	}
	if res.Triangles != fx.want {
		t.Errorf("triangles = %d, want %d", res.Triangles, fx.want)
	}
	if !cfg.List {
		return
	}
	got := normalizeListing(t, cfg.ListPath)
	if len(got) != len(fx.ref) {
		t.Fatalf("recovered run listed %d triangles, baseline %d", len(got), len(fx.ref))
	}
	for i := range got {
		if got[i] != fx.ref[i] {
			t.Fatalf("normalized listings diverge at %d: %v vs %v", i, got[i], fx.ref[i])
		}
	}
}

// failuresOf returns the failure-log entries naming addr, checking each is
// complete; a lost worker must have at least one.
func failuresOf(t *testing.T, res *Result, addr string) []Failure {
	t.Helper()
	var fs []Failure
	for _, f := range res.Failures {
		if f.Addr == addr {
			fs = append(fs, f)
			if f.Err == "" || f.Time.IsZero() {
				t.Errorf("failure entry incomplete: %+v", f)
			}
		}
	}
	if len(fs) == 0 {
		t.Errorf("lost worker %s missing from Result.Failures: %+v", addr, res.Failures)
	}
	return fs
}

// assertTrafficCounted: the replica bytes pushed to a node that later died
// crossed the master's uplink all the same, so Theorem IV.3's traffic
// figure may never be below the per-node copy volumes.
func assertTrafficCounted(t *testing.T, res *Result) {
	t.Helper()
	var copied int64
	for _, n := range res.Nodes {
		copied += n.CopyBytes
	}
	if res.NetworkBytes < copied {
		t.Errorf("NetworkBytes = %d, below the %d replica bytes sent", res.NetworkBytes, copied)
	}
}

// chaosAttempts bounds the retries of scenarios whose fault only fires if
// the chaos worker is handed a batch (always, under static).
const chaosAttempts = 5

var chaosScenarios = []struct {
	name string
	run  func(t *testing.T, fx *chaosFixture)
}{
	// The worker dies while its replica is still streaming: the copy RPC
	// fails, the node is declared lost before it held any work, and under
	// static its pre-assigned group is released to the survivors.
	{"kill mid-copy", func(t *testing.T, fx *chaosFixture) {
		lc := startCluster(t, 2)
		chaos := &chaosNode{Node: NewNode("chaos", t.TempDir(), 0), killAtChunk: 3}
		chaosAddr := startChaosWorker(t, chaos)
		cfg := fx.listing("midcopy.bin")
		cfg.ChunkBytes = 4096 // many chunks, so chunk 3 is mid-copy
		res, err := runChecked(t, context.Background(), cfg, []string{chaosAddr, lc.Addrs()[0], lc.Addrs()[1]}, nil)
		fx.assertExact(t, res, err, cfg)
		for _, f := range failuresOf(t, res, chaosAddr) {
			if f.Chunk != -1 {
				t.Errorf("mid-copy failure misattributed to a work unit: %+v", f)
			}
		}
		assertTrafficCounted(t, res)
	}},
	// The worker dies on its first Count: the batch is requeued with the
	// dead node excluded and drained by a survivor, attributed to its plan
	// index, and the listing — assembled by global plan index, which
	// recovery preserves — is byte-identical to a healthy run's.
	{"kill mid-calc", func(t *testing.T, fx *chaosFixture) {
		for attempt := 0; attempt < chaosAttempts; attempt++ {
			lc := startCluster(t, 2)
			chaos := &chaosNode{Node: NewNode("chaos", t.TempDir(), 0), killAtCount: 1}
			chaosAddr := startChaosWorker(t, chaos)
			cfg := fx.listing(fmt.Sprintf("midcalc%d.bin", attempt))
			res, err := runChecked(t, context.Background(), cfg, []string{lc.Addrs()[0], chaosAddr, lc.Addrs()[1]}, nil)
			fx.assertExact(t, res, err, cfg)
			lc.Close()
			if chaos.counts.Load() == 0 {
				continue // the master drained everything before the worker joined
			}
			for _, f := range failuresOf(t, res, chaosAddr) {
				if f.Chunk < 0 || f.Ranges == 0 {
					t.Errorf("mid-calculation failure misattributed: %+v", f)
				}
			}
			assertTrafficCounted(t, res)

			// The healthy run doubles as the static schedule's dispatch
			// pin: one Count per remote node, no more.
			healthy := fx.listing("healthy.bin")
			var addrs []string
			var nodes []*chaosNode
			for i := 0; i < 3; i++ {
				n := &chaosNode{Node: NewNode(fmt.Sprintf("h%d", i), t.TempDir(), 0)}
				nodes = append(nodes, n)
				addrs = append(addrs, startChaosWorker(t, n))
			}
			if _, err := runChecked(t, context.Background(), healthy, addrs, nil); err != nil {
				t.Fatal(err)
			}
			for _, n := range nodes {
				if c := n.counts.Load(); fx.cfg.Sched == sched.Static && c != 1 {
					t.Errorf("healthy static run sent node %s %d Counts, want exactly 1", n.name, c)
				}
			}
			a, err := os.ReadFile(cfg.ListPath)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(healthy.ListPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Error("recovered listing is not byte-identical to the healthy run's")
			}
			return
		}
		t.Fatalf("chaos worker never received a batch in %d attempts", chaosAttempts)
	}},
	// The worker wedges — its Count and every later Ping block forever
	// while the TCP connection stays healthy, the failure mode only the
	// heartbeat can see. The master must declare the node dead after the
	// missed heartbeats, reassign its batch, and finish.
	{"wedged worker", func(t *testing.T, fx *chaosFixture) {
		for attempt := 0; attempt < chaosAttempts; attempt++ {
			hang := make(chan struct{})
			lc := startCluster(t, 1)
			chaos := &chaosNode{Node: NewNode("chaos", t.TempDir(), 0), hangCount: hang}
			chaosAddr := startChaosWorker(t, chaos)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cfg := fx.cfg
			cfg.HeartbeatInterval = 50 * time.Millisecond
			res, err := runChecked(t, ctx, cfg, []string{lc.Addrs()[0], chaosAddr}, func() { close(hang) })
			fx.assertExact(t, res, err, cfg)
			lc.Close()
			if chaos.counts.Load() == 0 {
				continue
			}
			failuresOf(t, res, chaosAddr)
			return
		}
		t.Fatalf("chaos worker never received a batch in %d attempts", chaosAttempts)
	}},
	// Every remote node unreachable: the master, the executor of last
	// resort, must still complete the run exactly.
	{"all workers dead", func(t *testing.T, fx *chaosFixture) {
		g, err := gen.TriGrid(6, 6)
		if err != nil {
			t.Fatal(err)
		}
		lc := startCluster(t, 3)
		addrs := lc.Addrs()
		lc.Close()
		res, err := runChecked(t, context.Background(), Config{
			GraphBase: writeStore(t, g, "chaos-alldead"), Workers: 2, MemEdges: 64, Sched: fx.cfg.Sched,
		}, addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := gen.TriGridTriangles(6, 6); res.Triangles != want {
			t.Errorf("triangles = %d, want %d", res.Triangles, want)
		}
		if len(res.Failures) < 3 {
			t.Errorf("%d failures recorded, want one per dead node", len(res.Failures))
		}
	}},
	// Two workers that each die on their first Count, and a budget of one
	// reassignment: the retry count travels with the batch, so if the
	// second worker is the one to claim the first's batch the run must fail
	// and name it. Whether it does, or the master claims the batch first
	// and the run succeeds, depends on scheduling; what must never happen
	// is a wrong count or a hang.
	{"retry budget exhausted", func(t *testing.T, fx *chaosFixture) {
		g, err := gen.Complete(12)
		if err != nil {
			t.Fatal(err)
		}
		chaosA := &chaosNode{Node: NewNode("chaosA", t.TempDir(), 0), killAtCount: 1}
		chaosB := &chaosNode{Node: NewNode("chaosB", t.TempDir(), 0), killAtCount: 1}
		res, err := runChecked(t, context.Background(), Config{
			GraphBase: writeStore(t, g, "chaos-budget"), Workers: 1, MemEdges: 32,
			Sched: fx.cfg.Sched, Chunks: 8, MaxRetries: 1,
		}, []string{startChaosWorker(t, chaosA), startChaosWorker(t, chaosB)}, nil)
		if err == nil && res.Triangles != gen.CompleteTriangles(12) {
			t.Errorf("triangles = %d, want %d", res.Triangles, gen.CompleteTriangles(12))
		}
	}},
	// Recovery disabled (MaxRetries < 0): the pre-fault-tolerance fail-fast
	// behavior returns, and with several dead nodes the error names all of
	// them (errors.Join), not just the first.
	{"fail-fast", func(t *testing.T, fx *chaosFixture) {
		g, err := gen.Complete(6)
		if err != nil {
			t.Fatal(err)
		}
		lc := startCluster(t, 2)
		addrs := lc.Addrs()
		lc.Close()
		_, err = runChecked(t, context.Background(), Config{
			GraphBase: writeStore(t, g, "chaos-failfast"), Workers: 1, MemEdges: 16,
			Sched: fx.cfg.Sched, MaxRetries: -1,
		}, addrs, nil)
		if err == nil {
			t.Fatal("want error with two dead nodes and recovery disabled")
		}
		for _, addr := range addrs {
			if !strings.Contains(err.Error(), addr) {
				t.Errorf("joined error %q does not name dead node %s", err, addr)
			}
		}
	}},
	// Cancellation lands mid-run — the replica is streaming, the master's
	// own engine is computing: Run must return the bare ctx error and leave
	// nothing behind.
	{"cancelled mid-run", func(t *testing.T, fx *chaosFixture) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		chaos := &chaosNode{Node: NewNode("chaos", t.TempDir(), 0), killAtChunk: 2, atChunk: cancel}
		cfg := fx.cfg
		cfg.ChunkBytes = 4096
		if _, err := runChecked(t, ctx, cfg, []string{startChaosWorker(t, chaos)}, nil); err != context.Canceled {
			t.Fatalf("cancelled run returned %v, want context.Canceled", err)
		}
	}},
}

// TestChaos runs every failure scenario under both schedules.
func TestChaos(t *testing.T) {
	for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
		t.Run(mode.String(), func(t *testing.T) {
			fx := newChaosFixture(t, mode)
			for _, sc := range chaosScenarios {
				t.Run(sc.name, func(t *testing.T) { sc.run(t, fx) })
			}
		})
	}
}
