package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// checkGoroutines polls until the goroutine count settles back to the
// baseline — the PR 2 leak-check idiom (handle_test.go), shared by the
// streaming-teardown and shutdown tests.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getJSON decodes one JSON API reply.
func getJSON(t *testing.T, client *http.Client, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d; body: %s", url, resp.StatusCode, wantStatus, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return m
}

func postJSON(t *testing.T, client *http.Client, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d; body: %s", url, resp.StatusCode, wantStatus, reply)
	}
	var m map[string]any
	if err := json.Unmarshal(reply, &m); err != nil {
		t.Fatalf("POST %s: bad JSON %q: %v", url, reply, err)
	}
	return m
}

func TestServerRegisterCountCache(t *testing.T) {
	base := genStore(t, 8, 10)
	svc := New(Config{RunSlots: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()

	// Health before any graph.
	h := getJSON(t, client, ts.URL+"/healthz", 200)
	if h["status"] != "ok" {
		t.Fatalf("healthz = %v", h)
	}

	// Register.
	reg := postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)
	if reg["name"] != "g" {
		t.Fatalf("register reply = %v", reg)
	}

	// Cold count: an engine run.
	c1 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&mem=4096", 200)
	if c1["origin"] != "run" || c1["triangles"].(float64) <= 0 {
		t.Fatalf("cold count = %v", c1)
	}
	if c1["engine_runs"].(float64) != 1 {
		t.Fatalf("engine_runs after cold count = %v", c1["engine_runs"])
	}

	srcBefore := svc.Metrics().SourceBytesRead.Load()
	workerBefore := svc.Metrics().WorkerBytesRead.Load()

	// Identical repeat: cache hit, zero additional engine runs and zero I/O.
	c2 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&mem=4096", 200)
	if c2["origin"] != "cache" {
		t.Fatalf("repeat count origin = %v, want cache", c2["origin"])
	}
	if c2["triangles"] != c1["triangles"] {
		t.Fatalf("cache returned %v, want %v", c2["triangles"], c1["triangles"])
	}
	if c2["engine_runs"].(float64) != 1 {
		t.Fatalf("cache hit started an engine run: %v", c2["engine_runs"])
	}
	if got := svc.Metrics().SourceBytesRead.Load(); got != srcBefore {
		t.Fatalf("cache hit did source I/O: %d -> %d bytes", srcBefore, got)
	}
	if got := svc.Metrics().WorkerBytesRead.Load(); got != workerBefore {
		t.Fatalf("cache hit did worker I/O: %d -> %d bytes", workerBefore, got)
	}

	// A different option spelling of the same canonical run is still the
	// same cache slot (scan=auto names the one layout, kernel=auto the one
	// cone routine).
	c3 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&mem=4096&scan=auto&kernel=auto", 200)
	if c3["origin"] != "cache" {
		t.Fatalf("normalized-options count origin = %v, want cache", c3["origin"])
	}

	// A removed kernel or scan source name, and a truthy ?naive=, are a
	// bad request naming what was removed — asked twice, so a cached
	// answer would show — and nothing runs or reaches the cache.
	missesBefore := svc.Metrics().CacheMisses.Load()
	for _, param := range []string{"kernel=gallop", "kernel=adaptive", "kernel=compressed", "kernel=cover", "kernel=gallop", "kernel=merge", "kernel=merge", "scan=mem", "scan=mem", "scan=shared", "scan=shared", "scan=buffered", "scan=buffered", "naive=1", "naive=1"} {
		bad := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&mem=4096&"+param, http.StatusBadRequest)
		name := strconv.Quote(param[strings.IndexByte(param, '=')+1:])
		if strings.HasPrefix(param, "naive") {
			name = "?naive= was removed"
		}
		if !strings.Contains(fmt.Sprint(bad), name) {
			t.Fatalf("%s: reply %v does not name %s", param, bad, name)
		}
	}
	if n := svc.Metrics().RunsStarted.Load(); n != 1 {
		t.Fatalf("removed kernel and source names started engine runs: %d runs, want 1", n)
	}
	if n := svc.Metrics().CacheMisses.Load(); n != missesBefore {
		t.Fatalf("removed kernel and source names reached the cache: %d misses, want %d", n, missesBefore)
	}
	if c := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&mem=4096", 200); c["origin"] != "cache" {
		t.Fatalf("default count after refused names: origin %v, want cache", c["origin"])
	}

	// Different options: a fresh run.
	c4 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=1&mem=4096", 200)
	if c4["origin"] != "run" || c4["triangles"] != c1["triangles"] {
		t.Fatalf("new-options count = %v", c4)
	}

	// Re-registration invalidates: the same request runs again.
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)
	c5 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&mem=4096", 200)
	if c5["origin"] != "run" {
		t.Fatalf("post-re-register count origin = %v, want run", c5["origin"])
	}
	if c5["triangles"] != c1["triangles"] {
		t.Fatalf("post-re-register count = %v, want %v", c5["triangles"], c1["triangles"])
	}
}

// TestServerIdenticalLocalCountsShareCache: query knobs a local run does not
// compute with — the schedule and its chunk count, which only a cluster
// decides — leave an identical count in its cache slot: same key, no second
// engine run.
func TestServerIdenticalLocalCountsShareCache(t *testing.T) {
	base := genStore(t, 8, 10)
	svc := New(Config{RunSlots: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	c1 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2", 200)
	c2 := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2&sched=stealing&chunks=3", 200)
	if c1["origin"] != "run" || c2["origin"] != "cache" {
		t.Fatalf("origins %v then %v, want run then cache", c1["origin"], c2["origin"])
	}
	if c2["key"] != c1["key"] || c2["engine_runs"] != c1["engine_runs"] || c2["triangles"] != c1["triangles"] {
		t.Fatalf("second count %v, first %v: want the same key, engine runs and triangles", c2, c1)
	}
}

// TestServerStreamRunDuration: a stream run to its end counts in the run
// durations, as an executed count does.
func TestServerStreamRunDuration(t *testing.T) {
	base := genStore(t, 8, 14)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	resp, err := client.Get(ts.URL + "/v1/graphs/g/triangles?workers=2&mem=256")
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || n == 0 {
		t.Fatalf("stream read %d bytes: %v", n, err)
	}
	waitFor(t, func() bool { return svc.adm.InUse() == 0 })
	m := svc.Metrics()
	if m.RunsCompleted.Load() != 1 {
		t.Fatalf("RunsCompleted = %d, want 1", m.RunsCompleted.Load())
	}
	if m.RunDuration.Count() != 1 {
		t.Errorf("after a full stream: %d run durations, want 1", m.RunDuration.Count())
	}
}

// TestServerSingleFlight is the acceptance check: two concurrent identical
// GET /count requests on a cold graph trigger exactly one engine run. The
// run slot is deterministically blocked by a paused stream on a second
// graph, so the leader queues in admission while the joiner arrives.
func TestServerSingleFlight(t *testing.T) {
	blockBase := genStoreEF(t, 12, 16, 11)
	coldBase := genStore(t, 8, 12)
	svc := New(Config{RunSlots: 1, QueueDepth: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "block", Base: blockBase}, http.StatusCreated)
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "cold", Base: coldBase}, http.StatusCreated)

	// Occupy the only run slot: stream without reading past the first line.
	streamResp, err := client.Get(ts.URL + "/v1/graphs/block/triangles?workers=1&mem=256")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(streamResp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return svc.adm.InUse() == 1 })

	// Two identical cold counts: the leader queues for the slot, the
	// second joins its flight.
	type result struct {
		m   map[string]any
		err error
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(ts.URL + "/v1/graphs/cold/count?workers=2&mem=4096")
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				results <- result{err: fmt.Errorf("status %d: %s", resp.StatusCode, body)}
				return
			}
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				results <- result{err: err}
				return
			}
			results <- result{m: m}
		}()
	}
	// Exactly one request must reach the admission queue (the flight
	// leader); the other has joined the flight. Both are in place once the
	// queue is non-empty and one cache miss is recorded.
	waitFor(t, func() bool { return svc.adm.QueueDepth() == 1 })
	waitFor(t, func() bool {
		e, err := svc.Registry().Get("cold")
		if err != nil {
			return false
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, f := range e.flights {
			if f.waiters.Load() == 2 {
				return true
			}
		}
		return false
	})

	// Release the slot: drop the stream; its run is torn down and the
	// queued leader proceeds.
	streamResp.Body.Close()
	wg.Wait()
	close(results)

	var origins []string
	var triangles []float64
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		origins = append(origins, r.m["origin"].(string))
		triangles = append(triangles, r.m["triangles"].(float64))
	}
	if len(triangles) != 2 || triangles[0] != triangles[1] {
		t.Fatalf("triangle counts disagree: %v", triangles)
	}
	// Exactly one engine run on the cold handle — the single-flight
	// assertion, via the run counter.
	e, err := svc.Registry().Get("cold")
	if err != nil {
		t.Fatal(err)
	}
	if runs := e.Graph().Runs(); runs != 1 {
		t.Fatalf("engine runs on cold graph = %d, want exactly 1", runs)
	}
	var runCount, sharedCount int
	for _, o := range origins {
		switch o {
		case "run":
			runCount++
		case "shared":
			sharedCount++
		}
	}
	if runCount != 1 || sharedCount != 1 {
		t.Fatalf("origins = %v, want one run and one shared", origins)
	}
	if got := svc.Metrics().RunsShared.Load(); got != 1 {
		t.Fatalf("RunsShared = %d, want 1", got)
	}
	// A later identical count is the cache's: still the one engine run.
	c := getJSON(t, client, ts.URL+"/v1/graphs/cold/count?workers=2&mem=4096", 200)
	if c["origin"] != "cache" || c["triangles"] != triangles[0] {
		t.Fatalf("repeat count = %v, want a cache hit with %v triangles", c, triangles[0])
	}
	if runs := e.Graph().Runs(); runs != 1 || svc.Metrics().CacheHits.Load() != 1 {
		t.Fatalf("engine runs %d, cache hits %d after the repeat, want 1 and 1", runs, svc.Metrics().CacheHits.Load())
	}
}

// TestServerStreamDisconnectTeardown is the acceptance check: killing a
// streaming /triangles client mid-response tears the engine run down with
// no leaked goroutines and releases the run slot.
func TestServerStreamDisconnectTeardown(t *testing.T) {
	base := genStoreEF(t, 12, 16, 13)
	svc := New(Config{RunSlots: 1, QueueDepth: 4})
	ts := httptest.NewServer(svc)
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	// Warm the handle so the loop below measures runs, not orientation.
	getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=1&mem=65536", 200)

	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		resp, err := client.Get(ts.URL + "/v1/graphs/g/triangles?workers=2&mem=256")
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		for j := 0; j < 3; j++ {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream read %d: %v", j, err)
			}
			var tri map[string]uint32
			if err := json.Unmarshal([]byte(line), &tri); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
		}
		// Kill the client mid-stream: the handler's request context is
		// cancelled, the engine run aborts, the slot frees.
		resp.Body.Close()
		waitFor(t, func() bool { return svc.adm.InUse() == 0 })
	}
	checkGoroutines(t, baseline)
	if got := svc.Metrics().StreamsBroken.Load(); got != 3 {
		t.Errorf("StreamsBroken = %d, want 3", got)
	}

	// The service still works after the teardowns.
	c := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=1&mem=65536", 200)
	if c["origin"] != "cache" {
		t.Errorf("post-teardown count origin = %v, want cache", c["origin"])
	}
	ts.Close()
	svc.Shutdown(context.Background())
}

func TestServerStreamLimit(t *testing.T) {
	base := genStore(t, 8, 14)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	resp, err := client.Get(ts.URL + "/v1/graphs/g/triangles?limit=7&workers=2&mem=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 7 {
		t.Fatalf("limit=7 returned %d lines", len(lines))
	}
	for _, line := range lines {
		var tri struct{ U, V, W uint32 }
		if err := json.Unmarshal([]byte(line), &tri); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
	}
	waitFor(t, func() bool { return svc.adm.InUse() == 0 })
	// A stream its own limit ended is short of the listing, not a failed
	// run.
	if got := svc.Metrics().RunsFailed.Load(); got != 0 {
		t.Errorf("RunsFailed = %d, want 0", got)
	}
	if got := svc.Metrics().StreamsBroken.Load(); got != 1 {
		t.Errorf("StreamsBroken = %d, want 1", got)
	}
}

// TestServerStreamLimitAcrossBatches: a limit far past one batch and one
// 64 KiB write buffer still ends the stream on exactly that many valid,
// distinct lines.
func TestServerStreamLimitAcrossBatches(t *testing.T) {
	base := genStoreEF(t, 11, 16, 5)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)
	c := getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=2", http.StatusOK)
	if n := c["triangles"].(float64); n <= 10000 {
		t.Fatalf("store has %v triangles, want > 10000", n)
	}

	const limit = 5000
	resp, err := client.Get(ts.URL + "/v1/graphs/g/triangles?limit=5000&workers=2&mem=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != limit {
		t.Fatalf("limit=%d returned %d lines", limit, len(lines))
	}
	seen := make(map[[3]uint32]bool, limit)
	for _, line := range lines {
		var tri struct{ U, V, W uint32 }
		if err := json.Unmarshal([]byte(line), &tri); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		k := [3]uint32{tri.U, tri.V, tri.W}
		if seen[k] || tri.U == tri.V || tri.V == tri.W || tri.U == tri.W {
			t.Fatalf("line %q repeats a triangle or a vertex", line)
		}
		seen[k] = true
	}
	waitFor(t, func() bool { return svc.adm.InUse() == 0 })
}

// TestAppendTriangleLine: the encoder writes the bytes the fmt format
// {"u":%d,"v":%d,"w":%d}\n does.
func TestAppendTriangleLine(t *testing.T) {
	ts := [][3]uint32{{0, 0, 0}, {1, 1, 1}, {0, 1, 4294967295}, {4294967295, 4294967295, 4294967295}}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 1000 {
		ts = append(ts, [3]uint32{rng.Uint32(), rng.Uint32() >> rng.UintN(32), rng.Uint32N(10)})
	}
	var buf []byte
	for _, tri := range ts {
		want := fmt.Sprintf("{\"u\":%d,\"v\":%d,\"w\":%d}\n", tri[0], tri[1], tri[2])
		buf = appendTriangleLine(buf[:0], tri)
		if string(buf) != want {
			t.Fatalf("appendTriangleLine(%v) = %q, want %q", tri, buf, want)
		}
	}
	// It appends.
	if got := string(appendTriangleLine([]byte("x"), [3]uint32{1, 2, 3})); got != "x{\"u\":1,\"v\":2,\"w\":3}\n" {
		t.Errorf("appendTriangleLine kept no prefix: %q", got)
	}
}

func TestServerAdmissionShedsWhenFull(t *testing.T) {
	blockBase := genStoreEF(t, 12, 16, 15)
	svc := New(Config{RunSlots: 1, QueueDepth: -1}) // no waiting at all
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: blockBase}, http.StatusCreated)

	streamResp, err := client.Get(ts.URL + "/v1/graphs/g/triangles?workers=1&mem=256")
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(streamResp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return svc.adm.InUse() == 1 })

	resp, err := client.Get(ts.URL + "/v1/graphs/g/count?workers=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated count status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 reply missing Retry-After")
	}
	streamResp.Body.Close()
}

func TestServerEvictAndUnknown(t *testing.T) {
	base := genStore(t, 7, 16)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/g", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("evict status = %d", resp.StatusCode)
	}
	getJSON(t, client, ts.URL+"/v1/graphs/g/count", http.StatusNotFound)
	getJSON(t, client, ts.URL+"/v1/graphs/never/count", http.StatusNotFound)
}

// TestServerGraphRoutesShared drives every graph-scoped route through the
// request path they share: an unknown graph answers 404 with a JSON error,
// and once Shutdown has started every route, on a registered graph too,
// answers 503 with Retry-After.
func TestServerGraphRoutesShared(t *testing.T) {
	base := genStore(t, 7, 21)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	routes := []struct{ method, path, body string }{
		{http.MethodGet, "", ""},
		{http.MethodDelete, "", ""},
		{http.MethodGet, "/count", ""},
		{http.MethodGet, "/triangles", ""},
		{http.MethodGet, "/degrees", ""},
		{http.MethodPost, "/estimate", `{}`},
	}
	do := func(method, url, body string) (*http.Response, map[string]any) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatalf("%s %s: reply is not JSON: %v", method, url, err)
		}
		return resp, reply
	}
	for _, rt := range routes {
		resp, reply := do(rt.method, ts.URL+"/v1/graphs/nope"+rt.path, rt.body)
		if msg, _ := reply["error"].(string); resp.StatusCode != http.StatusNotFound || msg == "" {
			t.Errorf("%s /v1/graphs/nope%s = %d %v, want 404 with an error", rt.method, rt.path, resp.StatusCode, reply)
		}
	}

	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, rt := range routes {
		resp, reply := do(rt.method, ts.URL+"/v1/graphs/g"+rt.path, rt.body)
		if msg, _ := reply["error"].(string); resp.StatusCode != http.StatusServiceUnavailable || msg == "" {
			t.Errorf("%s /v1/graphs/g%s while draining = %d %v, want 503 with an error", rt.method, rt.path, resp.StatusCode, reply)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s /v1/graphs/g%s: 503 reply missing Retry-After", rt.method, rt.path)
		}
	}
}

func TestServerEstimateAndDegrees(t *testing.T) {
	base := genStore(t, 9, 17)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	// A static estimate is the exact count under the server's defaults, in
	// the cache slot of a count without parameters: after that count it is
	// a cache hit and starts no engine run.
	c := getJSON(t, client, ts.URL+"/v1/graphs/g/count", 200)
	exact := c["triangles"].(float64)
	for _, req := range []estimateRequest{{}, {Method: "exact"}} {
		est := postJSON(t, client, ts.URL+"/v1/graphs/g/estimate", req, 200)
		if est["origin"] != "cache" || est["method"] != "exact" || est["exact"] != true || est["estimate"] != exact {
			t.Fatalf("estimate %+v after a default count = %v, want a cache hit on the exact %v", req, est, exact)
		}
	}
	e, err := svc.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if runs := e.Graph().Runs(); float64(runs) != c["engine_runs"] {
		t.Fatalf("engine runs after the estimates = %d, want the count's %v", runs, c["engine_runs"])
	}
	// Either request warms the other: an estimate first, then the count.
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "h", Base: base}, http.StatusCreated)
	est := postJSON(t, client, ts.URL+"/v1/graphs/h/estimate", nil, 200)
	if est["origin"] != "run" || est["estimate"] != exact {
		t.Fatalf("first estimate = %v, want a run giving %v", est, exact)
	}
	if c := getJSON(t, client, ts.URL+"/v1/graphs/h/count", 200); c["origin"] != "cache" {
		t.Fatalf("count after an estimate = %v, want a cache hit", c)
	}
	// Only the exact method is accepted.
	for _, method := range []string{"doulion", "wedges", "streaming"} {
		postJSON(t, client, ts.URL+"/v1/graphs/g/estimate", estimateRequest{Method: method}, http.StatusBadRequest)
	}

	deg := getJSON(t, client, ts.URL+"/v1/graphs/g/degrees?workers=2&top=5", 200)
	if deg["triangles"].(float64) != exact {
		t.Fatalf("degrees triangles = %v, want %v", deg["triangles"], exact)
	}
	top := deg["top"].([]any)
	if len(top) == 0 || len(top) > 5 {
		t.Fatalf("top list size = %d", len(top))
	}
	prev := top[0].(map[string]any)["triangles"].(float64)
	for _, row := range top[1:] {
		cur := row.(map[string]any)["triangles"].(float64)
		if cur > prev {
			t.Fatalf("top list not descending: %v", top)
		}
		prev = cur
	}
	// Memoized: same options serve from cache.
	deg2 := getJSON(t, client, ts.URL+"/v1/graphs/g/degrees?workers=2&top=3", 200)
	if deg2["origin"] != "cache" {
		t.Fatalf("repeat degrees origin = %v", deg2["origin"])
	}
}

// TestServerDegreesKeyedOnGraph: per-vertex counts are the same under every
// option, so degrees requests that differ in workers and mem share one
// memoized set and one engine run.
func TestServerDegreesKeyedOnGraph(t *testing.T) {
	base := genStore(t, 8, 23)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)
	e, err := svc.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	runs := e.Graph().Runs()
	d1 := getJSON(t, client, ts.URL+"/v1/graphs/g/degrees?workers=2&mem=4096", 200)
	d2 := getJSON(t, client, ts.URL+"/v1/graphs/g/degrees?workers=1&mem=256", 200)
	if d1["origin"] != "run" || d2["origin"] != "cache" || d2["triangles"] != d1["triangles"] {
		t.Fatalf("degrees = %v then %v, want run then cache", d1["origin"], d2["origin"])
	}
	if got := e.Graph().Runs() - runs; got != 1 {
		t.Fatalf("engine runs for two degrees requests = %d, want 1", got)
	}
	// The options are still checked for the run itself.
	getJSON(t, client, ts.URL+"/v1/graphs/g/degrees?scan=shared", http.StatusBadRequest)
}

func TestServerRequestTimeout(t *testing.T) {
	base := genStore(t, 10, 18)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)

	// A 1 ns deadline cannot finish a run; the deadline maps onto the
	// engine's cancellation and surfaces as 504.
	resp, err := client.Get(ts.URL + "/v1/graphs/g/count?workers=1&mem=256&timeout=1ns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("timed-out count status = %d (%s), want 504", resp.StatusCode, body)
	}
	getJSON(t, client, ts.URL+"/v1/graphs/g/count?timeout=bogus", http.StatusBadRequest)
}

func TestServerMetricsEndpoint(t *testing.T) {
	base := genStore(t, 7, 19)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)
	getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=1", 200)
	getJSON(t, client, ts.URL+"/v1/graphs/g/count?workers=1", 200)

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"pdtl_runs_started 1",
		"pdtl_cache_hits 1",
		"pdtl_graphs_open 1",
		"pdtl_run_queue_depth 0",
		"pdtl_source_bytes_read",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerRefusesStealingBuffered: a distributed count asking for
// ?sched=stealing&scan=buffered — the paper's layout, which no option
// offers — is answered 400 with an error naming the layout, before
// anything runs or is cached.
func TestServerRefusesStealingBuffered(t *testing.T) {
	base := genStore(t, 8, 10)
	svc := New(Config{RunSlots: 2, QueueDepth: 8, ClusterAddrs: []string{"127.0.0.1:1"}})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	postJSON(t, client, ts.URL+"/v1/graphs", registerRequest{Name: "g", Base: base}, http.StatusCreated)
	reply := getJSON(t, client, ts.URL+"/v1/graphs/g/count?distributed=1&sched=stealing&scan=buffered", http.StatusBadRequest)
	if msg, _ := reply["error"].(string); !strings.Contains(msg, `scan source "buffered" is not offered`) {
		t.Errorf("error = %q, want one naming the layout", msg)
	}
	e, err := svc.Registry().Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if runs, cached := e.Graph().Runs(), e.CachedResults(); runs != 0 || cached != 0 {
		t.Errorf("the refused request ran %d times and cached %d results", runs, cached)
	}
}

// TestServerRefusesLiveGraphs: live graphs were removed. A registration
// asking for one is refused with a 400 that says so, and registers nothing;
// the mutation and compaction routes reach no handler; and /metrics has no
// mutation, compaction or live series left.
func TestServerRefusesLiveGraphs(t *testing.T) {
	base := genStore(t, 7, 23)
	svc := New(Config{})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()
	reply := postJSON(t, client, ts.URL+"/v1/graphs",
		map[string]any{"name": "g", "base": base, "live": true}, http.StatusBadRequest)
	if msg, _ := reply["error"].(string); !strings.Contains(msg, "live graphs were removed") {
		t.Errorf("error = %q, want one naming the removal", msg)
	}
	if n := svc.Registry().Len(); n != 0 {
		t.Fatalf("the refused registration left %d graphs", n)
	}
	postJSON(t, client, ts.URL+"/v1/graphs",
		map[string]any{"name": "g", "base": base, "live": false}, http.StatusCreated)

	for _, path := range []string{"/edges", "/compact"} {
		resp, err := client.Post(ts.URL+"/v1/graphs/g"+path, "application/json",
			strings.NewReader(`{"insert":[[1,2]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST /v1/graphs/g%s = %d, want 404 or 405", path, resp.StatusCode)
		}
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, gone := range []string{"pdtl_mutation_", "pdtl_edges_applied", "pdtl_compaction_", "pdtl_live_"} {
		if strings.Contains(string(body), gone) {
			t.Errorf("/metrics still has a %s series", gone)
		}
	}
}
