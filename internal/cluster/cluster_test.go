package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/sched"
)

func writeStore(t testing.TB, g *graph.CSR, name string) string {
	t.Helper()
	base := filepath.Join(t.TempDir(), name)
	if err := graph.WriteCSR(base, name, g); err != nil {
		t.Fatal(err)
	}
	return base
}

func startCluster(t testing.TB, n int) *LocalCluster {
	t.Helper()
	lc, err := StartLocal(n, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	return lc
}

func TestDistributedCountMatchesReference(t *testing.T) {
	g, err := gen.RMAT(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "rmat10")

	for _, clients := range []int{0, 1, 3} {
		lc := startCluster(t, clients)
		res, err := Run(context.Background(), Config{
			GraphBase: base,
			Workers:   2,
			MemEdges:  512,
			Strategy:  balance.InDegree,
		}, lc.Addrs())
		if err != nil {
			t.Fatalf("clients=%d: %v", clients, err)
		}
		if res.Triangles != want {
			t.Errorf("clients=%d: triangles = %d, want %d", clients, res.Triangles, want)
		}
		if len(res.Nodes) != clients+1 {
			t.Errorf("clients=%d: node results = %d", clients, len(res.Nodes))
		}
		// Master never has copy time; clients always do.
		if res.Nodes[0].CopyBytes != 0 {
			t.Error("master should not copy to itself")
		}
		for i := 1; i < len(res.Nodes); i++ {
			if res.Nodes[i].CopyBytes == 0 {
				t.Errorf("node %d: no copy bytes recorded", i)
			}
		}
	}
}

func TestDistributedNetworkTraffic(t *testing.T) {
	// Theorem IV.3: network traffic is Θ(N·(P+|E|)+T); with counting only,
	// the dominant term is one oriented-graph replica per client.
	g, err := gen.ErdosRenyi(500, 5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "er")
	lc := startCluster(t, 3)
	res, err := Run(context.Background(), Config{GraphBase: base, Workers: 2, MemEdges: 1024}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	d, err := graph.Open(res.OrientedBase)
	if err != nil {
		t.Fatal(err)
	}
	replica := d.AdjBytes() + int64(d.NumVertices())*graph.EntrySize
	// 3 replicas, plus the small meta files.
	if res.NetworkBytes < 3*replica {
		t.Errorf("network bytes %d below 3 replicas (%d)", res.NetworkBytes, 3*replica)
	}
	if res.NetworkBytes > 3*replica+10_000 {
		t.Errorf("network bytes %d too far above 3 replicas (%d)", res.NetworkBytes, 3*replica)
	}
}

func TestDistributedListing(t *testing.T) {
	g, err := gen.TriGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "tg")
	lc := startCluster(t, 2)
	listPath := filepath.Join(t.TempDir(), "triangles.bin")
	res, err := Run(context.Background(), Config{
		GraphBase: base,
		Workers:   2,
		MemEdges:  64,
		List:      true,
		ListPath:  listPath,
	}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	want := gen.TriGridTriangles(8, 8)
	if res.Triangles != want {
		t.Errorf("count = %d, want %d", res.Triangles, want)
	}
	f, err := os.Open(listPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	triples, err := mgt.ReadTriangles(f)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(triples)) != want {
		t.Fatalf("listed %d triangles, want %d", len(triples), want)
	}
	// No duplicates across nodes.
	sort.Slice(triples, func(i, j int) bool {
		a, b := triples[i], triples[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	for i := 1; i < len(triples); i++ {
		if triples[i] == triples[i-1] {
			t.Fatalf("duplicate triangle %v across nodes", triples[i])
		}
	}
}

func TestDistributedOrientedInput(t *testing.T) {
	g, err := gen.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k16")
	// Pre-orient via a first run, then feed the oriented store.
	lc := startCluster(t, 1)
	res1, err := Run(context.Background(), Config{GraphBase: base, Workers: 1, MemEdges: 64}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), Config{GraphBase: res1.OrientedBase, Workers: 1, MemEdges: 64}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Orientation != nil {
		t.Error("oriented input should skip orientation")
	}
	if res2.Triangles != gen.CompleteTriangles(16) {
		t.Errorf("triangles = %d", res2.Triangles)
	}
}

func TestUplinkLimiterSlowsCopies(t *testing.T) {
	g, err := gen.ErdosRenyi(2000, 40000, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "big")
	lc := startCluster(t, 1)

	fast, err := Run(context.Background(), Config{GraphBase: base, Workers: 1, MemEdges: 1 << 16}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	// With rate 4·replica/s and a 100ms burst (0.4·replica), the copy
	// must spend at least (replica − 0.4·replica)/(4·replica/s) = 150ms
	// waiting, regardless of host speed.
	replica := fast.Nodes[1].CopyBytes
	slow, err := Run(context.Background(), Config{
		GraphBase:         base,
		Workers:           1,
		MemEdges:          1 << 16,
		UplinkBytesPerSec: 4 * replica,
		ChunkBytes:        int(replica / 16),
	}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	if slow.Nodes[1].CopyTime < 100*time.Millisecond {
		t.Errorf("limited copy (%v) below the deterministic 150ms floor", slow.Nodes[1].CopyTime)
	}
}

func TestNodeTransferErrors(t *testing.T) {
	node := NewNode("n", t.TempDir(), 2)
	var hello HelloReply
	if err := node.Hello(&HelloArgs{}, &hello); err != nil || hello.Name != "n" || hello.MaxWorkers != 2 {
		t.Fatalf("hello = %+v err=%v", hello, err)
	}
	var ping PingReply
	if err := node.Ping(&PingArgs{}, &ping); err != nil || !ping.OK {
		t.Fatal("ping failed")
	}
	// Chunk without Begin.
	if err := node.GraphChunk(&ChunkArgs{Kind: FileAdj, Data: []byte{1}}, &struct{}{}); err == nil {
		t.Error("want error for chunk without begin")
	}
	// End without Begin.
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{}, &end); err == nil {
		t.Error("want error for end without begin")
	}
	// A second Begin supersedes a stale transfer (its master is presumed
	// dead): the first transfer's bytes are discarded, its token is
	// invalidated — a slow-but-alive first master's stale chunks and End
	// are rejected, never interleaved — and the new transfer starts from
	// zero.
	if err := node.BeginGraph(&BeginGraphArgs{Name: "g", Token: "m1"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := node.GraphChunk(&ChunkArgs{Token: "m1", Kind: FileAdj, Data: []byte{1, 2, 3}}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := node.BeginGraph(&BeginGraphArgs{Name: "g", Token: "m2"}, &struct{}{}); err != nil {
		t.Fatalf("superseding Begin failed: %v", err)
	}
	if err := node.GraphChunk(&ChunkArgs{Token: "m1", Kind: FileAdj, Data: []byte{9, 9}}, &struct{}{}); err == nil {
		t.Error("superseded master's chunk was accepted into the new transfer")
	}
	if err := node.EndGraph(&EndGraphArgs{Token: "m1"}, &end); err == nil {
		t.Error("superseded master's EndGraph finalized the new transfer")
	}
	// Unknown file kind (with the live token).
	if err := node.GraphChunk(&ChunkArgs{Token: "m2", Kind: "bogus", Data: []byte{1}}, &struct{}{}); err == nil {
		t.Error("want error for unknown kind")
	}
	if err := node.EndGraph(&EndGraphArgs{Token: "m2"}, &end); err != nil {
		t.Fatal(err)
	}
	if end.BytesReceived != 0 {
		t.Errorf("superseded transfer leaked %d bytes into the new one", end.BytesReceived)
	}
	// Count against a missing replica.
	var reply CountReply
	err := node.Count(&CountArgs{GraphName: "missing", Ranges: []balance.Range{{Lo: 0, Hi: 1}}, MemEdges: 4}, &reply)
	if err == nil {
		t.Error("want error for missing replica")
	}
}

// transferStore pushes a store's three files into a node via the transfer
// RPCs, optionally truncating the copy partway (sendFrac < 1 simulates a
// master that died mid-copy: no EndGraph is sent).
func transferStore(t *testing.T, node *Node, name, base string, sendFrac float64) {
	t.Helper()
	token := fmt.Sprintf("tok-%d-%f", time.Now().UnixNano(), sendFrac)
	if err := node.BeginGraph(&BeginGraphArgs{Name: name, Token: token}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	files := []struct {
		kind FileKind
		path string
	}{
		{FileMeta, graph.MetaPath(base)},
		{FileDeg, graph.DegPath(base)},
		{FileAdj, graph.AdjPath(base)},
	}
	var total, budget int64
	for _, f := range files {
		st, err := os.Stat(f.path)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	budget = int64(float64(total) * sendFrac)
	for _, f := range files {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if sendFrac < 1 {
			if budget <= 0 {
				return
			}
			if int64(len(data)) > budget {
				data = data[:budget]
			}
			budget -= int64(len(data))
		}
		if err := node.GraphChunk(&ChunkArgs{Token: token, Kind: f.kind, Data: data}, &struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	if sendFrac < 1 {
		return
	}
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{Token: token}, &end); err != nil {
		t.Fatal(err)
	}
}

// TestFailedCopyDoesNotPoisonReplicaCache: the regression test around
// openReplica — a re-replication that starts (truncating the files) must
// invalidate the cached Disk immediately, so a Count after a failed copy
// gets an open error instead of silently reading mangled bytes through
// stale metadata; a completed re-copy then serves a fresh handle.
func TestFailedCopyDoesNotPoisonReplicaCache(t *testing.T) {
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "k8")
	// Orient via a local run so the replica is a valid oriented store.
	res, err := Run(context.Background(), Config{GraphBase: base, Workers: 1, MemEdges: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	oriented := res.OrientedBase

	node := NewNode("n", t.TempDir(), 1)
	transferStore(t, node, "k8", oriented, 1)
	d1, err := node.openReplica("k8")
	if err != nil {
		t.Fatal(err)
	}
	if d2, err := node.openReplica("k8"); err != nil || d2 != d1 {
		t.Fatalf("second open = (%p, %v), want cached %p", d2, err, d1)
	}

	// A partial re-copy (master died; no EndGraph): the cached handle must
	// be gone. The files are truncated/partial, so the open must fail —
	// NOT return d1.
	transferStore(t, node, "k8", oriented, 0.3)
	if d, err := node.openReplica("k8"); err == nil {
		if d == d1 {
			t.Fatal("openReplica returned the stale cached handle over a partial replica")
		}
		t.Fatal("openReplica succeeded over a partial replica")
	}
	var reply CountReply
	if err := node.Count(&CountArgs{GraphName: "k8", Ranges: []balance.Range{{Lo: 0, Hi: 1}}, MemEdges: 16}, &reply); err == nil {
		t.Fatal("Count over a partial replica succeeded")
	}

	// A completed retry (superseding the stale transfer) heals the node.
	transferStore(t, node, "k8", oriented, 1)
	d3, err := node.openReplica("k8")
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("re-replicated graph served the pre-failure handle")
	}
	n := d3.d.NumVertices()
	reply = CountReply{}
	if err := node.Count(&CountArgs{
		GraphName: "k8",
		Ranges:    []balance.Range{{Lo: 0, Hi: d3.d.Offsets[n]}},
		MemEdges:  64,
	}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Triangles != want {
		t.Errorf("post-recovery count = %d, want %d", reply.Triangles, want)
	}
}

// TestNodeRejectsRemovedKernel: a master that predates the kernel deletion
// may still send a kernel name this node no longer has. The batch must fail
// with an error naming it — not panic, and not quietly run the default —
// while the two remaining names count the same triangles.
func TestNodeRejectsRemovedKernel(t *testing.T) {
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{GraphBase: writeStore(t, g, "k8"), Workers: 1, MemEdges: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode("n", t.TempDir(), 1)
	transferStore(t, node, "k8", res.OrientedBase, 1)
	d, err := node.openReplica("k8")
	if err != nil {
		t.Fatal(err)
	}
	args := CountArgs{GraphName: "k8", Ranges: []balance.Range{{Lo: 0, Hi: d.d.Meta.AdjEntries}}, MemEdges: 64}
	for _, kernel := range []string{"gallop", "adaptive", "compressed", "cover"} {
		args.Kernel = kernel
		var reply CountReply
		err := node.Count(&args, &reply)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", kernel)) {
			t.Errorf("kernel %q: Count = %v, want an error naming the kernel", kernel, err)
		}
		if reply.Triangles != 0 || reply.Workers != nil {
			t.Errorf("kernel %q: the rejected batch still counted: %+v", kernel, reply)
		}
	}
	// A master that still offers a removed source — the in-memory one, or
	// the shared broadcast — gets an error naming the layouts a node
	// accepts, not a panic or a count.
	for _, source := range []string{"mem", "shared"} {
		args.Kernel, args.Scan = "", source
		var reply CountReply
		if err := node.Count(&args, &reply); err == nil || !strings.Contains(err.Error(), "want auto, buffered)") {
			t.Errorf("scan %q: Count = %v, want an error naming the accepted layouts", args.Scan, err)
		}
		if reply.Triangles != 0 || reply.Workers != nil {
			t.Errorf("scan %q: the rejected batch still counted: %+v", args.Scan, reply)
		}
	}
	args.Scan = ""
	for _, kernel := range []string{"", "auto", "merge"} {
		args.Kernel = kernel
		var reply CountReply
		if err := node.Count(&args, &reply); err != nil {
			t.Fatalf("kernel %q: %v", kernel, err)
		}
		if want := gen.CompleteTriangles(8); reply.Triangles != want {
			t.Errorf("kernel %q: %d triangles, want %d", kernel, reply.Triangles, want)
		}
	}
}

// TestRunRecoversFromDeadNode: an unreachable node no longer kills the
// run — its work is reassigned (here master-local, the last resort) and the
// failure is reported in Result.Failures. (The fail-fast ablation,
// MaxRetries < 0, is a TestChaos scenario.)
func TestRunRecoversFromDeadNode(t *testing.T) {
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k6")
	lc := startCluster(t, 1)
	deadAddr := lc.Addrs()[0]
	lc.Close()

	for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
		res, err := Run(context.Background(), Config{
			GraphBase: base, Workers: 1, MemEdges: 16, Sched: mode,
		}, []string{deadAddr})
		if err != nil {
			t.Fatalf("%v: run with a dead node failed: %v", mode, err)
		}
		if want := gen.CompleteTriangles(6); res.Triangles != want {
			t.Errorf("%v: triangles = %d, want %d", mode, res.Triangles, want)
		}
		if len(res.Failures) == 0 {
			t.Fatalf("%v: dead node left no entry in Result.Failures", mode)
		}
		if f := res.Failures[0]; f.Addr != deadAddr || f.Err == "" || f.Time.IsZero() {
			t.Errorf("%v: failure entry = %+v, want addr %s with error and time", mode, f, deadAddr)
		}
	}
}

func TestListRequiresPath(t *testing.T) {
	g, err := gen.Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k5")
	if _, err := Run(context.Background(), Config{GraphBase: base, Workers: 1, MemEdges: 16, List: true}, nil); err == nil {
		t.Fatal("want error for List without ListPath")
	}
}

func TestLimiter(t *testing.T) {
	ctx := context.Background()
	// Unlimited limiter never blocks.
	l := NewLimiter(0)
	done := make(chan struct{})
	go func() {
		l.Wait(ctx, 1<<30)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unlimited limiter blocked")
	}
	// A nil limiter is a no-op too.
	var nilL *Limiter
	nilL.Wait(ctx, 100)

	// A limited limiter enforces an approximate rate beyond its 100ms
	// burst: at 10 MiB/s the burst is 1 MiB, so waiting for 3 MiB must
	// take at least (3−1)/10 = 200ms.
	rate := int64(10 << 20)
	l = NewLimiter(rate)
	start := time.Now()
	if err := l.Wait(ctx, 3<<20); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("limited Wait returned too fast: %v", elapsed)
	}
}

// TestLimiterWaitCancel: a cancelled context unblocks a Wait that would
// otherwise sleep off seconds of token debt, refunds the unsent bytes, and
// leaks no goroutines.
func TestLimiterWaitCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	// 1 KiB/s with a ~100-byte burst: 1 MiB of debt would sleep ~17 min.
	l := NewLimiter(1 << 10)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	start := time.Now()
	go func() { errCh <- l.Wait(ctx, 1<<20) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err != context.Canceled {
			t.Fatalf("cancelled Wait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Wait did not return")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled Wait took %v, want prompt return", elapsed)
	}
	// The refund means a small follow-up Wait is not charged the aborted
	// megabyte: it must return in well under the ~17 min the debt implied.
	start = time.Now()
	if err := l.Wait(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("post-cancel Wait(10) took %v: aborted bytes were not refunded", elapsed)
	}
	// No goroutines may outlive Wait (it uses no goroutines at all).
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked: %d, baseline %d", n, baseline)
	}
}

// TestMasterPlansForTheWindow: the master plans for the window its nodes'
// runners will use. Under static that is the global N·P ranges the local
// engine's planner makes for the same options, not one window per range
// whatever -mem says; under stealing it is the local plan at (P, M) itself —
// the windows of P·M entries the units are cut from, on any cluster size.
func TestMasterPlansForTheWindow(t *testing.T) {
	g, err := gen.PowerLaw(1500, 15000, 1.9, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "pl")
	lc := startCluster(t, 1)
	const workers, mem = 2, 100
	for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
		res, err := Run(context.Background(), Config{
			GraphBase: base,
			Workers:   workers,
			MemEdges:  mem,
			Strategy:  balance.InDegree,
			Sched:     mode,
		}, lc.Addrs())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Triangles != want {
			t.Errorf("%v: triangles = %d, want %d", mode, res.Triangles, want)
		}
		d := mustOpen(t, res.OrientedBase)
		if mode == sched.Stealing {
			local, err := core.LocalPlan(d, res.OrientedBase, core.Options{Workers: workers, MemEdges: mem, Strategy: balance.InDegree})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Plan.Ranges, local.Ranges) || res.Plan.Windows != local.Windows || res.Plan.MemEdges != workers*mem {
				t.Errorf("stealing: master planned %+v, the local plan is %+v", res.Plan, local)
			}
			continue
		}
		local, err := core.PlanFor(d, res.OrientedBase, core.Options{
			Workers:  2 * workers, // N·P
			MemEdges: mem,
			Strategy: balance.InDegree,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Plan.Ranges, local.Ranges) {
			t.Errorf("static: master planned %v, core.PlanFor %v", res.Plan.Ranges, local.Ranges)
		}
		if res.Plan.Windows < 40 || res.Plan.MemEdges != mem {
			t.Errorf("static: master's plan is for %d windows of %d entries, want ≥ 40 of %d", res.Plan.Windows, res.Plan.MemEdges, mem)
		}
		blind, err := core.Plan(d, res.OrientedBase, 2*workers, balance.InDegree)
		if err != nil {
			t.Fatal(err)
		}
		if slices.Equal(res.Plan.Ranges, blind.Ranges) {
			t.Errorf("the M-aware plan equals the single-window plan %v; the test graph no longer tells them apart", blind.Ranges)
		}
	}
}

func mustOpen(t *testing.T, base string) *graph.Disk {
	t.Helper()
	d, err := graph.Open(base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
