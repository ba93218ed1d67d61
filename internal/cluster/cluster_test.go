package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
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

// TestDistributedListingReplacesWhole: a listing onto an existing file
// replaces it by rename, so a reader that opened the old file keeps reading
// all of it, the path holds the whole new listing, and no temp file is
// left beside it.
func TestDistributedListingReplacesWhole(t *testing.T) {
	g, err := gen.TriGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "tg")
	lc := startCluster(t, 2)
	dir := t.TempDir()
	listPath := filepath.Join(dir, "triangles.bin")
	old := bytes.Repeat([]byte{0xff}, 1<<16)
	if err := os.WriteFile(listPath, old, 0o666); err != nil {
		t.Fatal(err)
	}
	reader, err := os.Open(listPath)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	res, err := Run(context.Background(), Config{
		GraphBase: base, Workers: 2, MemEdges: 64, List: true, ListPath: listPath,
	}, lc.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	listing, err := os.ReadFile(listPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Triangles * 3 * graph.EntrySize; uint64(len(listing)) != want {
		t.Fatalf("listing is %d bytes, want %d", len(listing), want)
	}
	kept, err := io.ReadAll(reader)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kept, old) {
		t.Fatalf("the old file's reader saw %d bytes of a changed file, want its %d bytes", len(kept), len(old))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("listing directory holds %v, want only the listing", names)
	}
}

// TestDistributedListingKeepsSpecialOutputs: the master publishes a
// listing by rename, which would replace whatever sits at ListPath. A FIFO
// there is refused before the run — the store is not even oriented — and
// stays a FIFO; a symlink stays a symlink, and its target is the file
// replaced: by the whole listing on success, and not at all by a cancelled
// run. (Only temp directories: a regression must never get to replace a
// real device node.)
func TestDistributedListingKeepsSpecialOutputs(t *testing.T) {
	g, err := gen.TriGrid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	base := writeStore(t, g, "tg")
	lc := startCluster(t, 1)
	dir := t.TempDir()
	list := func(ctx context.Context, path string) error {
		_, err := Run(ctx, Config{GraphBase: base, Workers: 2, MemEdges: 64, List: true, ListPath: path}, lc.Addrs())
		return err
	}

	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := list(context.Background(), fifo); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("listing onto a FIFO: err = %v, want a refusal", err)
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode().Type() != os.ModeNamedPipe {
		t.Errorf("the FIFO is now %v (%v)", fi.Mode(), err)
	}
	if _, err := os.Stat(base + ".oriented.meta"); err == nil {
		t.Error("the refused run oriented the store first")
	}

	want := filepath.Join(dir, "want.bin")
	if err := list(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	target, link := filepath.Join(dir, "target.bin"), filepath.Join(dir, "link.bin")
	old := []byte("the old listing")
	if err := os.WriteFile(target, old, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("target.bin", link); err != nil {
		t.Fatal(err)
	}
	check := func(label string, wantBytes []byte) {
		t.Helper()
		if fi, err := os.Lstat(link); err != nil || fi.Mode().Type() != os.ModeSymlink {
			t.Errorf("%s: the symlink is now %v (%v)", label, fi.Mode(), err)
		}
		if got, err := os.ReadFile(target); err != nil || !bytes.Equal(got, wantBytes) {
			t.Errorf("%s: the target holds %d bytes (%v), want %d", label, len(got), err, len(wantBytes))
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := list(cancelled, link); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled listing: err = %v", err)
	}
	check("cancelled", old)
	if err := list(context.Background(), link); err != nil {
		t.Fatal(err)
	}
	listing, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	check("listed", listing)
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(left) > 0 {
		t.Errorf("left behind: %v", left)
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
	// waiting, regardless of host speed: every file is smaller than one
	// stream step, so the limiter is charged each file whole.
	replica := fast.Nodes[1].CopyBytes
	if replica >= streamStep {
		t.Fatalf("replica of %d bytes; the floor assumes less than one step", replica)
	}
	slow, err := Run(context.Background(), Config{
		GraphBase:         base,
		Workers:           1,
		MemEdges:          1 << 16,
		UplinkBytesPerSec: 4 * replica,
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
	if err := node.Hello(&HelloArgs{}, &hello); err != nil || hello.Name != "n" || hello.MaxWorkers != 2 || !hello.StreamCopy {
		t.Fatalf("hello = %+v err=%v", hello, err)
	}
	var ping PingReply
	if err := node.Ping(&PingArgs{}, &ping); err != nil || !ping.OK {
		t.Fatal("ping failed")
	}
	addr := serveNode(t, node).Addr()
	base := smallStore(t)
	// A stream without Begin.
	if ans := sendStream(t, addr, streamBytes(t, base, "m0", -1)); len(ans) != 0 {
		t.Errorf("a stream without begin was answered %v", ans)
	}
	// End without Begin.
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{}, &end); err == nil {
		t.Error("want error for end without begin")
	}
	// A stream naming a file kind the transfer has none of aborts it.
	if err := node.BeginGraph(&BeginGraphArgs{Name: "g", Token: "m1"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	bogus, err := streamHead("m1")
	if err != nil {
		t.Fatal(err)
	}
	if ans := sendStream(t, addr, append(append(bogus, fileHead("bogus", 1)...), 1)); len(ans) != 0 {
		t.Errorf("a stream of an unknown kind was answered %v", ans)
	}
	if err := node.EndGraph(&EndGraphArgs{Token: "m1"}, &end); err == nil {
		t.Error("EndGraph finalized a transfer whose stream failed")
	}
	// A stream that does not open with the preface is refused.
	if ans := sendStream(t, addr, []byte(streamPreface[:1]+"pdtl-replica/0\n")); len(ans) != 0 {
		t.Errorf("a stream with a foreign preface was answered %v", ans)
	}
	// Count against a missing replica.
	var reply CountReply
	err = node.Count(&CountArgs{GraphName: "missing", Ranges: []balance.Range{{Lo: 0, Hi: 1}}, MemEdges: 4}, &reply)
	if err == nil {
		t.Error("want error for missing replica")
	}
}

// serveNode serves node on loopback until the test ends.
func serveNode(t *testing.T, node *Node) *Server {
	t.Helper()
	srv, err := Listen(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// smallStore is a plain store of K8 — its files are what the stream tests
// send.
func smallStore(t *testing.T) string {
	t.Helper()
	g, err := gen.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	return writeStore(t, g, "k8")
}

// streamBytes is a replica stream of a plain store's files for token: the
// whole stream, or, when cut ≥ 0, its head and the first cut bytes of the
// files' data with nothing after them.
func streamBytes(t *testing.T, base, token string, cut int64) []byte {
	t.Helper()
	b, err := streamHead(token)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []FileKind{FileMeta, FileDeg, FileAdj} {
		path, err := replicaPath(base, kind)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b = append(b, fileHead(kind, int64(len(data)))...)
		if cut >= 0 && cut <= int64(len(data)) {
			return append(b, data[:cut]...)
		}
		if cut >= 0 {
			cut -= int64(len(data))
		}
		b = append(b, data...)
	}
	return append(b, fileHead("", 0)...)
}

// sendStream writes stream to the node server at addr, ends the
// connection's writing side, and returns what the node answered before it
// closed the connection: nothing if it refused the stream.
func sendStream(t *testing.T, addr string, stream []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(stream) // a node that refuses early may reset the connection
	conn.(*net.TCPConn).CloseWrite()
	ans, _ := io.ReadAll(conn)
	return ans
}

// transferStore pushes a store's three files into a node as a master does —
// BeginGraph, the replica stream, EndGraph — or, with sendFrac < 1, as a
// master that died mid-copy does: the stream breaks off after that share of
// the bytes, and no EndGraph follows.
func transferStore(t *testing.T, node *Node, name, base string, sendFrac float64) {
	t.Helper()
	token := fmt.Sprintf("tok-%d-%f", time.Now().UnixNano(), sendFrac)
	if err := node.BeginGraph(&BeginGraphArgs{Name: name, Token: token}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if sendFrac < 1 {
		var total int64
		for _, path := range []string{graph.MetaPath(base), graph.DegPath(base), graph.AdjPath(base)} {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			total += st.Size()
		}
		sendStream(t, srv.Addr(), streamBytes(t, base, token, int64(float64(total)*sendFrac)))
		return
	}
	sent, err := streamReplica(context.Background(), srv.Addr(), base, token, []FileKind{FileMeta, FileDeg, FileAdj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{Token: token}, &end); err != nil {
		t.Fatal(err)
	}
	if end.BytesReceived != sent {
		t.Fatalf("the node received %d of %d bytes", end.BytesReceived, sent)
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

// TestNodeRejectsRemovedKernel: a master that still names a kernel or a
// layout in its batches predates the replica stream. Gob drops the fields a
// receiver lacks, so it is the copy, not the batch, that turns such a master
// away: its chunk RPC fails cleanly, naming the method, its EndGraph finds
// nothing received — which fails the master's byte check — and the node
// serves on.
func TestNodeRejectsRemovedKernel(t *testing.T) {
	lc := startCluster(t, 1)
	client, err := rpc.Dial("tcp", lc.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Call("Node.BeginGraph", &BeginGraphArgs{Name: "k8", Token: "old"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	type chunkArgs struct { // an older master's Node.GraphChunk request
		Token string
		Kind  FileKind
		Data  []byte
	}
	err = client.Call("Node.GraphChunk", &chunkArgs{Token: "old", Kind: FileAdj, Data: []byte{1, 2, 3}}, &struct{}{})
	if err == nil || !strings.Contains(err.Error(), "GraphChunk") {
		t.Fatalf("an older master's chunk RPC returned %v, want an error naming the method", err)
	}
	var end EndGraphReply
	if err := client.Call("Node.EndGraph", &EndGraphArgs{Token: "old"}, &end); err != nil || end.BytesReceived != 0 {
		t.Errorf("EndGraph after the refused chunk = %+v, %v; want 0 bytes received", end, err)
	}
	var hello HelloReply
	if err := client.Call("Node.Hello", &HelloArgs{}, &hello); err != nil || !hello.StreamCopy {
		t.Errorf("the node stopped serving after an older master's chunk: %+v, %v", hello, err)
	}
}

// TestStreamSuperseded: a stream whose transfer a later BeginGraph
// superseded — before it began, or midway — is refused and writes nothing
// into the new transfer's files.
func TestStreamSuperseded(t *testing.T) {
	node := NewNode("n", t.TempDir(), 1)
	addr := serveNode(t, node).Addr()
	base := smallStore(t)
	// After its EndGraph, the new transfer's files must hold nothing.
	empty := func(what string) {
		t.Helper()
		for _, kind := range []FileKind{FileMeta, FileDeg, FileAdj} {
			path, err := replicaPath(node.base("g"), kind)
			if err != nil {
				t.Fatal(err)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != 0 {
				t.Errorf("%s: the new transfer's %s file: %v, %v; want it empty", what, kind, st, err)
			}
		}
	}
	begin := func(token string) {
		t.Helper()
		if err := node.BeginGraph(&BeginGraphArgs{Name: "g", Token: token}, &struct{}{}); err != nil {
			t.Fatal(err)
		}
	}
	endEmpty := func(token string) {
		t.Helper()
		var end EndGraphReply
		if err := node.EndGraph(&EndGraphArgs{Token: token}, &end); err != nil || end.BytesReceived != 0 {
			t.Errorf("EndGraph of the new transfer = %+v, %v; want 0 bytes received", end, err)
		}
	}

	begin("m1")
	begin("m2")
	if ans := sendStream(t, addr, streamBytes(t, base, "m1", -1)); len(ans) != 0 {
		t.Errorf("the superseded master's stream was answered %v", ans)
	}
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{Token: "m1"}, &end); err == nil {
		t.Error("the superseded master's EndGraph finalized the new transfer")
	}
	endEmpty("m2")
	empty("superseded before its stream")

	// Midway: the stream is 100 bytes into the adjacency when m4
	// supersedes it.
	begin("m3")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var cut int64 = 100
	for _, path := range []string{graph.MetaPath(base), graph.DegPath(base)} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cut += st.Size()
	}
	whole := streamBytes(t, base, "m3", -1)
	part := streamBytes(t, base, "m3", cut)
	if _, err := conn.Write(part); err != nil {
		t.Fatal(err)
	}
	path, err := replicaPath(node.base("g"), FileAdj)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := os.Stat(path); err == nil && st.Size() == 100 {
			break // the node is writing m3's adjacency
		}
		if time.Now().After(deadline) {
			t.Fatal("the node never began writing the stream")
		}
	}
	begin("m4")
	conn.Write(whole[len(part):])
	conn.(*net.TCPConn).CloseWrite()
	if ans, _ := io.ReadAll(conn); len(ans) != 0 {
		t.Errorf("the stream superseded midway was answered %v", ans)
	}
	endEmpty("m4")
	empty("superseded midway")
}

// TestStreamTruncated: a stream that breaks off mid-file — its master died
// — aborts the transfer: the node answers nothing, EndGraph refuses the
// transfer, and no replica of it is opened, cached or counted.
func TestStreamTruncated(t *testing.T) {
	node := NewNode("n", t.TempDir(), 1)
	addr := serveNode(t, node).Addr()
	base := smallStore(t)
	if err := node.BeginGraph(&BeginGraphArgs{Name: "k8", Token: "t1"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	if ans := sendStream(t, addr, streamBytes(t, base, "t1", 100)); len(ans) != 0 {
		t.Errorf("a truncated stream was answered %v", ans)
	}
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{Token: "t1"}, &end); err == nil {
		t.Errorf("EndGraph finalized a truncated stream (%d bytes received)", end.BytesReceived)
	}
	if _, err := node.openReplica("k8"); err == nil {
		t.Error("a truncated replica opened")
	}
	node.mu.Lock()
	_, cached := node.disks["k8"]
	node.mu.Unlock()
	if cached {
		t.Error("a truncated replica was cached")
	}
}

// TestStreamReplicaShrinks: a new copy overwrites the old one's files in
// place, so a smaller graph under the same name must leave files of its own
// size, not the old copy's tail, and count as itself.
func TestStreamReplicaShrinks(t *testing.T) {
	node := NewNode("n", t.TempDir(), 1)
	for _, k := range []int{9, 5} {
		g, err := gen.Complete(k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Config{GraphBase: writeStore(t, g, "k"), Workers: 1, MemEdges: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		transferStore(t, node, "k", res.OrientedBase, 1)
		for _, path := range []func(string) string{graph.MetaPath, graph.DegPath, graph.AdjPath} {
			want, err := os.ReadFile(path(res.OrientedBase))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path(node.base("k")))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("K%d: the replica's %s is %d bytes, not the %d sent", k, filepath.Base(path("k")), len(got), len(want))
			}
		}
		d, err := node.openReplica("k")
		if err != nil {
			t.Fatal(err)
		}
		var reply CountReply
		if err := node.Count(&CountArgs{GraphName: "k", Ranges: []balance.Range{{Lo: 0, Hi: d.d.Meta.AdjEntries}}, MemEdges: 64}, &reply); err != nil {
			t.Fatal(err)
		}
		if want := gen.CompleteTriangles(k); reply.Triangles != want {
			t.Errorf("K%d: the replica counts %d triangles, want %d", k, reply.Triangles, want)
		}
	}
}

// TestStreamServerClose: Server.Close in the middle of a stream returns,
// ends the stream's connection and leaks no goroutine; the transfer it was
// feeding is aborted.
func TestStreamServerClose(t *testing.T) {
	before := runtime.NumGoroutine()
	node := NewNode("n", t.TempDir(), 1)
	srv, err := Listen(node, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := node.BeginGraph(&BeginGraphArgs{Name: "g", Token: "c1"}, &struct{}{}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head, err := streamHead("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(append(head, fileHead(FileAdj, 1<<20)...), make([]byte, 100)...)); err != nil {
		t.Fatal(err)
	}
	path, err := replicaPath(node.base("g"), FileAdj)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, err := os.Stat(path); err == nil && st.Size() == 100 {
			break // the node is mid-file, waiting for the rest
		}
		if time.Now().After(deadline) {
			t.Fatal("the node never began writing the stream")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return mid-stream")
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("the stream's connection outlived the server")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d after Close, %d before\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
	var end EndGraphReply
	if err := node.EndGraph(&EndGraphArgs{Token: "c1"}, &end); err == nil {
		t.Error("EndGraph finalized the transfer whose stream the server cut")
	}
}

// TestStreamCopyRequired: a master lets no node join that does not take
// its replica as a stream — under either schedule the join fails, naming
// the upgrade, and the run finishes exactly on the other nodes.
func TestStreamCopyRequired(t *testing.T) {
	g, err := gen.RMAT(10, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(g)
	base := writeStore(t, g, "old")
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
		if len(fs) != 1 || fs[0].Chunk != -1 || !strings.Contains(fs[0].Err, "predates replica streams") || !strings.Contains(fs[0].Err, "upgrade") {
			t.Errorf("%v: the older node's failures are %+v, want one join failure naming the upgrade", mode, fs)
		}
		if res.Nodes[1].CopyBytes != 0 {
			t.Errorf("%v: %d replica bytes sent to a node that cannot take them", mode, res.Nodes[1].CopyBytes)
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
