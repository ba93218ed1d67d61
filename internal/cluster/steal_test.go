package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pdtl/internal/balance"
	"pdtl/internal/baseline"
	"pdtl/internal/core"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// TestDistributedStealingMatchesReference runs the unit-dispensing protocol
// end to end: the master must hand every unit out exactly once across nodes
// and the summed counts must match the baseline, for any cluster size
// including the degenerate local one.
func TestDistributedStealingMatchesReference(t *testing.T) {
	g, err := gen.RMAT(10, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "rmat10")

	for _, clients := range []int{0, 1, 3} {
		lc := startCluster(t, clients)
		cfg := Config{
			GraphBase: base,
			Workers:   2,
			MemEdges:  512,
			Strategy:  balance.InDegree,
			Sched:     sched.Stealing,
			Chunks:    4,
		}
		res, err := Run(context.Background(), cfg, lc.Addrs())
		if err != nil {
			t.Fatalf("clients=%d: %v", clients, err)
		}
		if res.Triangles != want {
			t.Errorf("clients=%d: triangles = %d, want %d", clients, res.Triangles, want)
		}
		// Every unit must have been executed exactly once: every runner of a
		// node takes part in each of its units, so the nodes' first runners
		// ran as many as there are.
		units := stealUnits(mustOpen(t, res.OrientedBase), res.Plan, 2*512, sched.ChunksFor((clients+1)*2, 4))
		if len(units) < 4 {
			t.Fatalf("clients=%d: only %d units; the test graph no longer cuts into several", clients, len(units))
		}
		ran := 0
		for _, n := range res.Nodes {
			if len(n.Workers) > 0 {
				ran += n.Workers[0].Chunks
			}
		}
		if ran != len(units) {
			t.Errorf("clients=%d: nodes executed %d units, want %d", clients, ran, len(units))
		}
	}
}

// TestDistributedStealingListing checks the index-ordered listing
// assembly: the triples of a stealing run, re-sorted, must equal the
// static run's, and the raw stealing listing must be identical across runs
// (segments are concatenated by global unit index, not arrival order).
func TestDistributedStealingListing(t *testing.T) {
	g, err := gen.PowerLaw(300, 4500, 2.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "pl")
	dir := t.TempDir()

	runList := func(name string, mode sched.Mode) []byte {
		t.Helper()
		lc := startCluster(t, 2)
		path := filepath.Join(dir, name)
		_, err := Run(context.Background(), Config{
			GraphBase: base,
			Workers:   2,
			MemEdges:  256,
			Strategy:  balance.InDegree,
			Sched:     mode,
			Chunks:    4,
			List:      true,
			ListPath:  path,
		}, lc.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	staticList := runList("static.bin", sched.Static)
	stealList := runList("steal.bin", sched.Stealing)
	if !bytes.Equal(staticList, runList("static2.bin", sched.Static)) {
		t.Error("static listing differs across runs")
	}
	if !bytes.Equal(stealList, runList("steal2.bin", sched.Stealing)) {
		t.Error("stealing listing differs across runs; unit-order determinism broken")
	}
	a, b := normalizeListing(t, filepath.Join(dir, "static.bin")), normalizeListing(t, filepath.Join(dir, "steal.bin"))
	if len(a) != len(b) {
		t.Fatalf("static listed %d triangles, stealing %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("normalized listings diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDistributedStealingCancel: a cancelled stealing protocol aborts
// promptly with the bare context error, same as the static path.
func TestDistributedStealingCancel(t *testing.T) {
	g, err := gen.RMAT(10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "rmatc")
	lc := startCluster(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, Config{
		GraphBase: base,
		Workers:   2,
		MemEdges:  64,
		Sched:     sched.Stealing,
	}, lc.Addrs())
	if err != context.Canceled {
		t.Fatalf("pre-cancelled stealing run returned %v, want context.Canceled", err)
	}
}

// stealStore orients g into a store of the given format — ranked, or in
// g's own ids with no .perm (a store from before rank space) — and returns
// its base.
func stealStore(t testing.TB, g *graph.CSR, format graph.Format, ranked bool) string {
	t.Helper()
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "g"), filepath.Join(dir, "g.oriented")
	if !ranked {
		if err := graph.WriteCSR(src, "test", orient.CSR(g)); err != nil {
			t.Fatal(err)
		}
		if format.OrPlain() == graph.FormatPlain {
			return src
		}
		if err := graph.ConvertStore(src, dst, format); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	if err := graph.WriteCSR(src, "test", g); err != nil {
		t.Fatal(err)
	}
	if _, err := orient.OrientFormat(src, dst, 2, format); err != nil {
		t.Fatal(err)
	}
	return dst
}

// localListing is what `pdtl list -workers p -mem m` writes for the store
// at base: the local engine's ordered listing, in the input's ids.
func localListing(t *testing.T, base string, p, m int) []byte {
	t.Helper()
	var out bytes.Buffer
	if _, err := core.Process(context.Background(), base, core.Options{Workers: p, MemEdges: m, Out: &out}); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestStealingListMatchesLocal: a stealing cluster's listing is, byte for
// byte, the local engine's at the same (P, M) — same windows, same blocks,
// same order — with no workers, one or three, at one window and at three, on
// both formats, and when a worker dies on its first unit and the unit is
// run again elsewhere.
func TestStealingListMatchesLocal(t *testing.T) {
	g, err := gen.RMAT(13, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		base := stealStore(t, g, format, true)
		total := mustOpen(t, base).Meta.AdjEntries
		for _, windows := range []uint64{1, 3} {
			m := int((total + p*windows - 1) / (p * windows))
			want := localListing(t, base, p, m)
			for _, clients := range []int{0, 1, 3, -2} {
				name := fmt.Sprintf("%s W=%d clients=%d", format, windows, clients)
				var addrs []string
				if clients >= 0 {
					addrs = startCluster(t, clients).Addrs()
				} else {
					// Two healthy workers and one that dies on its first unit.
					addrs = append(startCluster(t, -clients).Addrs(),
						startChaosWorker(t, &chaosNode{Node: NewNode("chaos", t.TempDir(), 0), killAtCount: 1}))
				}
				path := filepath.Join(t.TempDir(), "steal.bin")
				res, err := Run(context.Background(), Config{
					GraphBase: base, Workers: p, MemEdges: m, Sched: sched.Stealing, List: true, ListPath: path,
				}, addrs)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Plan.Windows != windows {
					t.Fatalf("%s: %d windows", name, res.Plan.Windows)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: the stealing listing (%d bytes) is not the local one (%d bytes)", name, len(got), len(want))
				}
			}
		}
	}
}

// unitArgs is the Count a stealing master sends for one unit.
func unitArgs(name string, p, m int, u unit) *CountArgs {
	return &CountArgs{GraphName: name, Sched: "stealing", Workers: p, MemEdges: m, Unit: &StealUnit{Window: u.rng, Cone: u.cone}}
}

// TestStealingHeldWindow pins what a node's held window may and may not do:
// (a) it does not survive a re-replication — a different graph of the same
// size under the same name is counted as itself, not through the window the
// old one left; (b) two Counts in flight on one node share it (run under
// -race); (c) a stealing run with no workers is the local run at (P, M): the
// same triangles, steps, passes and bytes read.
func TestStealingHeldWindow(t *testing.T) {
	t.Run("re-replication", func(t *testing.T) {
		// K8 and a 28-cycle: 28 oriented entries each, so one window has the
		// same bounds in both.
		k8, err := gen.Complete(8)
		if err != nil {
			t.Fatal(err)
		}
		var edges []graph.Edge
		for v := uint32(0); v < 28; v++ {
			edges = append(edges, graph.Edge{U: v, V: (v + 1) % 28})
		}
		cycle, err := graph.FromEdges(28, edges)
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode("n", t.TempDir(), 1)
		for _, tc := range []struct {
			g    *graph.CSR
			want uint64
		}{{k8, gen.CompleteTriangles(8)}, {cycle, 0}, {k8, gen.CompleteTriangles(8)}} {
			base := stealStore(t, tc.g, graph.FormatPlain, true)
			transferStore(t, node, "g", base, 1)
			node.mu.Lock()
			_, cached := node.disks["g"]
			node.mu.Unlock()
			if cached {
				t.Fatal("the replica's handle and held window survived its re-replication")
			}
			d := mustOpen(t, base)
			u := unit{rng: balance.Range{Lo: 0, Hi: d.Meta.AdjEntries}, cone: balance.Range{Lo: 0, Hi: uint64(d.NumVertices())}}
			for rep := 0; rep < 2; rep++ {
				var reply CountReply
				if err := node.Count(unitArgs("g", 1, 64, u), &reply); err != nil {
					t.Fatal(err)
				}
				if reply.Triangles != tc.want {
					t.Fatalf("count %d of the replica: %d triangles, want %d", rep, reply.Triangles, tc.want)
				}
				if loaded := reply.SourceIO.BytesRead > 0; loaded != (rep == 0) {
					t.Errorf("count %d of the replica read %d bytes of window", rep, reply.SourceIO.BytesRead)
				}
			}
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		g, err := gen.RMAT(12, 8, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := baseline.Forward(g)
		base := stealStore(t, g, graph.FormatPlain, true)
		d := mustOpen(t, base)
		const p, m = 2, 1 << 20
		units := stealUnits(d, balance.Plan{MemEdges: d.Meta.AdjEntries}, p*m, 8)
		if len(units) < 4 {
			t.Fatalf("%d units; the test graph no longer cuts into several", len(units))
		}
		for rep := 0; rep < 3; rep++ {
			node := NewNode("n", t.TempDir(), p)
			transferStore(t, node, "g", base, 1)
			var wg sync.WaitGroup
			tris := make([]uint64, len(units))
			errs := make([]error, len(units))
			for i, u := range units {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var reply CountReply
					errs[i] = node.Count(unitArgs("g", p, m, u), &reply)
					tris[i] = reply.Triangles
				}()
			}
			wg.Wait()
			var sum uint64
			for i := range units {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				sum += tris[i]
			}
			if sum != want {
				t.Errorf("rep %d: the units counted %d triangles in flight together, want %d", rep, sum, want)
			}
		}
	})

	t.Run("one node is the local run", func(t *testing.T) {
		g, err := gen.RMAT(13, 8, 6)
		if err != nil {
			t.Fatal(err)
		}
		const p = 2
		for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
			base := stealStore(t, g, format, true)
			total := mustOpen(t, base).Meta.AdjEntries
			for _, windows := range []uint64{1, 3} {
				m := int((total + p*windows - 1) / (p * windows))
				local, err := core.Process(context.Background(), base, core.Options{Workers: p, MemEdges: m})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), Config{GraphBase: base, Workers: p, MemEdges: m, Sched: sched.Stealing}, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, got := local.TotalStats(), mgt.Stats{IO: res.Nodes[0].SourceIO}
				for _, w := range res.Nodes[0].Workers {
					got = got.Add(w.Stats)
				}
				if got.Triangles != want.Triangles || got.CmpOps != want.CmpOps || got.Passes != want.Passes || got.IO.BytesRead != want.IO.BytesRead {
					t.Errorf("%s W=%d: the cluster of one counts %d triangles in %d steps, %d passes, reading %d bytes; the local run %d, %d, %d, %d",
						format, windows, got.Triangles, got.CmpOps, got.Passes, got.IO.BytesRead, want.Triangles, want.CmpOps, want.Passes, want.IO.BytesRead)
				}
			}
		}
	})
}

// recNode records the stealing units a node is sent, in order.
type recNode struct {
	*Node
	mu    sync.Mutex
	units []unit
}

func (r *recNode) Count(args *CountArgs, reply *CountReply) error {
	r.mu.Lock()
	r.units = append(r.units, unit{rng: args.Unit.Window, cone: args.Unit.Cone})
	r.mu.Unlock()
	return r.Node.Count(args, reply)
}

// TestStealingIOExact is Theorem IV.3 for a stealing cluster, to the byte:
// a node's window loads read each window it took a unit of once, and its
// runners read, once each, the lists of its units that the unit's window
// does not hold whole — nothing at one window — at one window and at three,
// on both formats, ranked and in id space. The master's units are the ones
// no worker was sent.
func TestStealingIOExact(t *testing.T) {
	g, err := gen.PowerLaw(3000, 40000, 1.9, 5)
	if err != nil {
		t.Fatal(err)
	}
	const p = 2
	for _, format := range []graph.Format{graph.FormatPlain, graph.FormatCompressed} {
		for _, ranked := range []bool{true, false} {
			base := stealStore(t, g, format, ranked)
			d := mustOpen(t, base)
			total := d.Meta.AdjEntries
			listBytes := func(a, z graph.Vertex) int64 {
				if d.ByteOffs != nil {
					return int64(d.ByteOffs[z] - d.ByteOffs[a])
				}
				return int64(d.Offsets[z]-d.Offsets[a]) * graph.EntrySize
			}
			loadBytes := func(w balance.Range) int64 {
				if d.ByteOffs != nil {
					return listBytes(d.VertexAt(w.Lo), d.VertexAt(w.Hi-1)+1)
				}
				return int64(w.Len()) * graph.EntrySize
			}
			scanBytes := func(u unit) int64 {
				a, z := graph.Vertex(u.cone.Lo), graph.Vertex(u.cone.Hi)
				n := listBytes(a, z)
				for v := a; v < z; v++ {
					if d.Offsets[v] >= u.rng.Lo && d.Offsets[v+1] <= u.rng.Hi {
						n -= listBytes(v, v+1)
					}
				}
				return n
			}
			// What a node that ran these units, in this order, reads.
			want := func(units []unit) (loads, scans int64) {
				for i, u := range units {
					if i == 0 || units[i-1].rng != u.rng {
						loads += loadBytes(u.rng)
					}
					scans += scanBytes(u)
				}
				return loads, scans
			}
			for _, windows := range []uint64{1, 3} {
				name := fmt.Sprintf("%s ranked=%v W=%d", format, ranked, windows)
				m := int((total + p*windows - 1) / (p * windows))
				var recs []*recNode
				var addrs []string
				for i := 0; i < 2; i++ {
					rec := &recNode{Node: NewNode(fmt.Sprintf("r%d", i), t.TempDir(), 0)}
					lis, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					srv, err := serveRcvr(rec, rec.Node, lis)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { srv.Close() })
					recs, addrs = append(recs, rec), append(addrs, srv.Addr())
				}
				res, err := Run(context.Background(), Config{GraphBase: base, Workers: p, MemEdges: m, Sched: sched.Stealing}, addrs)
				if err != nil {
					t.Fatal(err)
				}
				all := stealUnits(d, res.Plan, p*uint64(m), sched.ChunksFor(3*p, 0))
				var master []unit
				taken := map[unit]bool{}
				for _, rec := range recs {
					for _, u := range rec.units {
						taken[unit{rng: u.rng, cone: u.cone}] = true
					}
				}
				for _, u := range all {
					if !taken[unit{rng: u.rng, cone: u.cone}] {
						master = append(master, unit{rng: u.rng, cone: u.cone})
					}
				}
				nodes := append([][]unit{master}, recs[0].units, recs[1].units)
				for i, units := range nodes {
					loads, scans := want(units)
					var read int64
					for _, w := range res.Nodes[i].Workers {
						read += w.Stats.IO.BytesRead
					}
					if res.Nodes[i].SourceIO.BytesRead != loads || read != scans {
						t.Errorf("%s: node %d ran %d units reading %d bytes of windows and %d of lists, want %d and %d",
							name, i, len(units), res.Nodes[i].SourceIO.BytesRead, read, loads, scans)
					}
					if windows == 1 && scans != 0 {
						t.Errorf("%s: node %d would read lists at one window", name, i)
					}
				}
			}
		}
	}
}

// oldHello is a node as a build before stealing units answers the
// handshake: it does not offer held windows.
type oldHello struct{ *Node }

func (o *oldHello) Hello(args *HelloArgs, reply *HelloReply) error {
	reply.Name, reply.MaxWorkers = o.name, o.workers
	return nil
}

// TestStealingMixedVersions: a stealing master does not let a node that
// predates stealing units join — it would take a unit for nothing to count
// — and says so in a join failure, finishing exactly on the other nodes; a
// static master takes the same node. And a node of this build still counts
// the batches an older stealing master sends — P pivot chunks of a K·N·P
// plan at a time — exactly.
func TestStealingMixedVersions(t *testing.T) {
	g, err := gen.RMAT(11, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "mixed")
	for _, mode := range []sched.Mode{sched.Static, sched.Stealing} {
		old := &oldHello{Node: NewNode("old", t.TempDir(), 0)}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serveRcvr(old, old.Node, lis)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		res, err := Run(context.Background(), Config{GraphBase: base, Workers: 2, MemEdges: 512, Sched: mode},
			[]string{srv.Addr(), startCluster(t, 1).Addrs()[0]})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Triangles != want {
			t.Errorf("%v: triangles = %d, want %d", mode, res.Triangles, want)
		}
		var fs []Failure
		for _, f := range res.Failures {
			if f.Addr == srv.Addr() {
				fs = append(fs, f)
			}
		}
		switch {
		case mode == sched.Static && len(fs) > 0:
			t.Errorf("static: the older node was refused: %+v", fs)
		case mode == sched.Stealing && (len(fs) != 1 || fs[0].Chunk != -1 || !strings.Contains(fs[0].Err, "predates stealing units")):
			t.Errorf("stealing: the older node's failures are %+v, want one join failure naming why", fs)
		}
	}

	// An older stealing master's batches, over the wire to a node of this
	// build.
	oriented := stealStore(t, g, graph.FormatPlain, true)
	d := mustOpen(t, oriented)
	inDeg, err := orient.LoadInDegrees(oriented, d.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	const p, m = 2, 300
	chunks, err := balance.PlanStore(d, inDeg, sched.ChunksFor(2*p, 0), balance.InDegree, m)
	if err != nil {
		t.Fatal(err)
	}
	lc := startCluster(t, 1)
	transferStore(t, lc.Servers[0].Node, "mixed", oriented, 1)
	client, err := rpc.Dial("tcp", lc.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var got uint64
	for i := 0; i < len(chunks.Ranges); i += p {
		args := CountArgs{GraphName: "mixed", Ranges: chunks.Ranges[i:min(i+p, len(chunks.Ranges))], Sched: "stealing", Workers: p, MemEdges: m}
		var reply CountReply
		if err := client.Call("Node.Count", &args, &reply); err != nil {
			t.Fatal(err)
		}
		got += reply.Triangles
	}
	if got != want {
		t.Errorf("an older master's stealing batches counted %d triangles, want %d", got, want)
	}
}

// TestStealingNeedsSharedWindow: -sched stealing with -scan buffered is
// refused before anything runs, with an error naming the pair — by the
// master, and by a node sent such a unit.
func TestStealingNeedsSharedWindow(t *testing.T) {
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "k6")
	_, err = Run(context.Background(), Config{GraphBase: base, Workers: 1, MemEdges: 64, Sched: sched.Stealing, Scan: scan.SourceBuffered}, nil)
	if err == nil || !strings.Contains(err.Error(), "-sched stealing does not combine with -scan buffered") {
		t.Errorf("Run = %v, want the refusal naming the pair", err)
	}
	if _, err := os.Stat(base + ".oriented.meta"); err == nil {
		t.Error("the refused run oriented the store first")
	}
	var reply CountReply
	args := CountArgs{Unit: &StealUnit{Window: balance.Range{Lo: 0, Hi: 1}, Cone: balance.Range{Lo: 0, Hi: 1}}, Scan: "buffered", Sched: "stealing"}
	if _, err := count(context.Background(), nil, &heldWindow{}, &args, &reply); err == nil || !strings.Contains(err.Error(), "-scan buffered") {
		t.Errorf("a node ran a unit under -scan buffered: %v", err)
	}
}
