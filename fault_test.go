package pdtl

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestCountDistributedSurvivesDeadWorker: the public handle API's view of
// the fault-tolerance layer. One of three workers is down before the run;
// g.CountDistributed must still return the exact count, with the failure
// visible in ClusterResult.Failures — and a fail-fast run (MaxRetries < 0)
// must error instead.
func TestCountDistributedSurvivesDeadWorker(t *testing.T) {
	base := filepath.Join(t.TempDir(), "fault")
	if _, err := GeneratePowerLaw(base, 400, 4000, 2.0, 31); err != nil {
		t.Fatal(err)
	}
	g, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	want, err := g.Count(context.Background(), Options{Workers: 2, MemEdges: 512})
	if err != nil {
		t.Fatal(err)
	}

	// Three workers; kill one before the run so the failure is
	// deterministic at this level (mid-run kills are chaos-tested inside
	// internal/cluster, where the RPC layer can be instrumented).
	live, err := StartLocalWorkers(2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	dead, err := ServeWorkerContext(context.Background(), "127.0.0.1:0", "doomed", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	addrs := []string{live.Addrs()[0], deadAddr, live.Addrs()[1]}

	for _, mode := range []string{"static", "stealing"} {
		res, err := g.CountDistributed(context.Background(), addrs, ClusterOptions{
			Workers: 2, MemEdges: 512, Sched: mode,
			HeartbeatInterval: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s: run with dead worker failed: %v", mode, err)
		}
		if res.Triangles != want.Triangles {
			t.Errorf("%s: triangles = %d, want %d", mode, res.Triangles, want.Triangles)
		}
		found := false
		for _, f := range res.Failures {
			if f.Addr == deadAddr {
				found = true
				if f.Err == "" || f.Time.IsZero() {
					t.Errorf("%s: incomplete failure entry: %+v", mode, f)
				}
			}
		}
		if !found {
			t.Errorf("%s: dead worker %s missing from Failures: %+v", mode, deadAddr, res.Failures)
		}
	}

	if _, err := g.CountDistributed(context.Background(), addrs, ClusterOptions{
		Workers: 2, MemEdges: 512, MaxRetries: -1,
	}); err == nil {
		t.Fatal("MaxRetries<0: want error when a worker is unreachable")
	}
}
