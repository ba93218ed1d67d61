package harness

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"pdtl/internal/graph"
	"pdtl/internal/sched"
)

// TestBenchJSONSchema runs the JSON bench on the smoke dataset and decodes
// the output, pinning the schema fields the perf trajectory consumes: both
// schedulers present, identical counts, sane imbalance, version tag.
func TestBenchJSONSchema(t *testing.T) {
	h, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.BenchJSON(&buf, []string{"tiny"}, 2, 0, nil); err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if report.Schema != BenchSchema {
		t.Errorf("schema = %q, want %q", report.Schema, BenchSchema)
	}
	// /2 environment provenance: the trio that makes trajectories from
	// different machines attributable.
	if report.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", report.GoVersion, runtime.Version())
	}
	if report.GoMaxProc < 1 {
		t.Errorf("gomaxprocs = %d", report.GoMaxProc)
	}
	if report.Hostname == "" {
		t.Error("hostname is empty (want a name or the explicit \"unknown\")")
	}
	if len(report.Runs) != 4 {
		t.Fatalf("got %d runs, want count+listing per scheduler", len(report.Runs))
	}
	modes := map[string]BenchRun{}
	byMode := map[string][]BenchRun{}
	for _, r := range report.Runs {
		modes[r.Sched] = r
		byMode[r.Mode] = append(byMode[r.Mode], r)
		if r.Dataset != "tiny" || r.Workers != 2 {
			t.Errorf("run mislabeled: %+v", r)
		}
		if r.Triangles == 0 {
			t.Errorf("%s run found no triangles", r.Sched)
		}
		if r.WallNS <= 0 || r.OrientNS <= 0 {
			t.Errorf("%s run has empty timings: wall=%d orient=%d", r.Sched, r.WallNS, r.OrientNS)
		}
		// /6 per-phase breakdown: planning is a nonzero slice of the
		// calculation wall.
		if r.PlanNS <= 0 || r.PlanNS > r.WallNS {
			t.Errorf("%s run plan_ns = %d outside (0, wall_ns=%d]", r.Sched, r.PlanNS, r.WallNS)
		}
		if r.WorkerImbalance < 1 {
			t.Errorf("%s imbalance %f below 1 (max/mean cannot be)", r.Sched, r.WorkerImbalance)
		}
		if r.Scan == "" || r.Kernel == "" {
			t.Errorf("%s run missing execution-layer labels: %+v", r.Sched, r)
		}
		// /3 compressed-store ablation fields: a default harness runs the
		// plain store at exactly 4 adjacency bytes per directed edge with
		// no segment headers to skip on.
		if r.StoreFormat != "plain" {
			t.Errorf("%s run store_format = %q, want plain", r.Sched, r.StoreFormat)
		}
		if r.BytesPerEdge != 4 {
			t.Errorf("%s run bytes_per_edge = %f, want 4 for a plain store", r.Sched, r.BytesPerEdge)
		}
		if r.SegmentsSkipped != 0 {
			t.Errorf("%s run segments_skipped = %d on a plain store", r.Sched, r.SegmentsSkipped)
		}
		// /4 live-graph churn fields are zero for static-store runs.
		if r.DeltaEdges != 0 || r.Compactions != 0 {
			t.Errorf("%s static run has live gauges: delta=%d compactions=%d",
				r.Sched, r.DeltaEdges, r.Compactions)
		}
		// /5 vectorization counters are zero on a plain store (no
		// compressed payloads to decode or popcount).
		if r.WordOps != 0 || r.FastDecodes != 0 {
			t.Errorf("%s plain-store run has word_ops=%d fast_decodes=%d",
				r.Sched, r.WordOps, r.FastDecodes)
		}
	}
	// /5 row pairing: a count and a listing row per scheduler, identical
	// triangle counts across the pair.
	if len(byMode["count"]) != 2 || len(byMode["listing"]) != 2 {
		t.Fatalf("mode split: %d count, %d listing", len(byMode["count"]), len(byMode["listing"]))
	}
	for i := range byMode["count"] {
		c, l := byMode["count"][i], byMode["listing"][i]
		if c.Triangles != l.Triangles {
			t.Errorf("%s count run found %d triangles, listing %d", c.Sched, c.Triangles, l.Triangles)
		}
	}
	st, ok1 := modes["static"]
	sl, ok2 := modes["stealing"]
	if !ok1 || !ok2 {
		t.Fatalf("runs missing a scheduler: %v", modes)
	}
	if st.Triangles != sl.Triangles {
		t.Errorf("schedulers disagree: static %d, stealing %d triangles", st.Triangles, sl.Triangles)
	}
	if sl.Chunks == 0 {
		t.Error("stealing run reports no chunk count")
	}
	// Decoding through a generic map keeps key names pinned (a renamed
	// field would silently break downstream BENCH_*.json consumers).
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "generated", "go_version", "gomaxprocs", "hostname", "runs"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("report object missing key %q", key)
		}
	}
	runs := raw["runs"].([]any)
	first := runs[0].(map[string]any)
	for _, key := range []string{"dataset", "workers", "sched", "mode", "scan", "kernel",
		"store_format", "bytes_per_edge", "segments_skipped", "triangles",
		"wall_ns", "orient_ns", "plan_ns", "cpu_ns", "io_ns", "bytes_read",
		"worker_imbalance", "max_worker_wall_ns",
		"delta_edges", "compactions", "word_ops", "fast_decodes"} {
		if _, ok := first[key]; !ok {
			t.Errorf("run object missing key %q", key)
		}
	}
}

// TestBenchChurnJSON pins the /4 live rows: the delta-overlay count carries
// delta_edges > 0 and no compactions, the post-compaction count the
// reverse, and both agree on the triangle count (compaction folds the delta
// without changing the graph).
func TestBenchChurnJSON(t *testing.T) {
	h, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.BenchChurnJSON(&buf, []string{"tiny"}, 2, 0, 500); err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if report.Schema != BenchSchema {
		t.Errorf("schema = %q, want %q", report.Schema, BenchSchema)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("got %d runs, want delta + compacted", len(report.Runs))
	}
	liveRun, compacted := report.Runs[0], report.Runs[1]
	if liveRun.Dataset != "tiny+live" || compacted.Dataset != "tiny+compacted" {
		t.Fatalf("run labels: %q, %q", liveRun.Dataset, compacted.Dataset)
	}
	if liveRun.DeltaEdges == 0 || liveRun.Compactions != 0 {
		t.Errorf("live row: delta=%d compactions=%d, want >0 / 0",
			liveRun.DeltaEdges, liveRun.Compactions)
	}
	if compacted.DeltaEdges != 0 || compacted.Compactions != 1 {
		t.Errorf("compacted row: delta=%d compactions=%d, want 0 / 1",
			compacted.DeltaEdges, compacted.Compactions)
	}
	if liveRun.Triangles != compacted.Triangles {
		t.Errorf("compaction changed the count: %d vs %d", liveRun.Triangles, compacted.Triangles)
	}
	if liveRun.Triangles == 0 {
		t.Error("churn rows found no triangles")
	}
	if liveRun.WallNS <= 0 || compacted.WallNS <= 0 {
		t.Error("churn rows missing wall timings")
	}
}

// TestBenchJSONCompressedStore: a compressed-store harness reports the
// format, a sub-4 bytes/edge ratio, header-pruned segments, and the same
// triangle count as the plain default.
func TestBenchJSONCompressedStore(t *testing.T) {
	plain, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plain.BenchJSON(&buf, []string{"tiny"}, 2, 0, []sched.Mode{sched.Static}); err != nil {
		t.Fatal(err)
	}
	var ref BenchReport
	if err := json.Unmarshal(buf.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	h, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h.StoreFormat = graph.FormatCompressed
	buf.Reset()
	if err := h.BenchJSON(&buf, []string{"tiny"}, 2, 0, []sched.Mode{sched.Static}); err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("got %d runs, want count + listing", len(report.Runs))
	}
	for _, r := range report.Runs {
		if r.StoreFormat != "compressed" {
			t.Errorf("%s store_format = %q, want compressed", r.Mode, r.StoreFormat)
		}
		if r.BytesPerEdge <= 0 || r.BytesPerEdge >= 4 {
			t.Errorf("%s bytes_per_edge = %f, want in (0, 4) for a compressed store", r.Mode, r.BytesPerEdge)
		}
		if r.SegmentsSkipped == 0 {
			t.Errorf("%s segments_skipped = 0 under the compressed kernel on a compressed store", r.Mode)
		}
		if r.Triangles != ref.Runs[0].Triangles {
			t.Errorf("compressed store %s run counted %d triangles, plain %d", r.Mode, r.Triangles, ref.Runs[0].Triangles)
		}
	}
	if report.Runs[0].Mode != "count" || report.Runs[1].Mode != "listing" {
		t.Fatalf("row order: %q, %q, want count then listing", report.Runs[0].Mode, report.Runs[1].Mode)
	}
}

// TestBenchJSONSingleMode: an explicit scheduler selection produces
// exactly one count/listing row pair per dataset.
func TestBenchJSONSingleMode(t *testing.T) {
	h, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := h.BenchJSON(&buf, []string{"tiny"}, 2, 0, []sched.Mode{sched.Static}); err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("static-only request produced %d runs, want count + listing", len(report.Runs))
	}
	for _, r := range report.Runs {
		if r.Sched != "static" {
			t.Fatalf("static-only request produced %+v", report.Runs)
		}
	}
}
