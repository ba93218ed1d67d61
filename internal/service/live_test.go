package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pdtl"
)

// scrapeMetrics fetches /metrics and returns the integer-valued samples as
// a name → value map. Comment lines (# HELP / # TYPE) and float-valued
// samples (histogram sums) are skipped; labeled series keep their label
// set in the key.
func scrapeMetrics(t *testing.T, client *http.Client, url string) map[string]int64 {
	t.Helper()
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	vals := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		vals[name] = n
	}
	return vals
}

// TestServerLiveMutateInvalidatesCache drives the live HTTP surface end to
// end: register a mutable graph, count (memoized), mutate (which must
// invalidate the memoized result), recount, estimate, compact, and check
// the gauges — while a plain graph on the same server keeps rejecting the
// mutation endpoints.
func TestServerLiveMutateInvalidatesCache(t *testing.T) {
	base := genStore(t, 7, 3)
	svc := New(Config{RunSlots: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/graphs",
		registerRequest{Name: "lv", Base: base, Live: true}, http.StatusCreated)
	postJSON(t, client, ts.URL+"/v1/graphs",
		registerRequest{Name: "ro", Base: base}, http.StatusCreated)

	countURL := ts.URL + "/v1/graphs/lv/count?workers=2&mem=4096"
	c1 := getJSON(t, client, countURL, 200)
	if c1["origin"] != "run" || c1["live"] != true {
		t.Fatalf("cold live count = %v", c1)
	}
	t0 := c1["triangles"].(float64)
	if c2 := getJSON(t, client, countURL, 200); c2["origin"] != "cache" {
		t.Fatalf("repeat live count origin = %v, want cache", c2["origin"])
	}

	// The streaming estimate agrees with the exact count (the default
	// reservoir dwarfs this store, so it is in the exact regime).
	est := postJSON(t, client, ts.URL+"/v1/graphs/lv/estimate", nil, 200)
	if est["method"] != "streaming" || est["exact"] != true || est["estimate"].(float64) != t0 {
		t.Fatalf("live estimate = %v, want exact %v", est, t0)
	}

	// A triangle among three brand-new vertices: exactly +1 triangle, no
	// interaction with the generated store.
	mut := postJSON(t, client, ts.URL+"/v1/graphs/lv/edges", mutateRequest{
		Insert: [][2]uint32{{300, 301}, {301, 302}, {300, 302}},
	}, 200)
	if mut["inserted"].(float64) != 3 || mut["mut_gen"].(float64) != 1 {
		t.Fatalf("mutate reply = %v", mut)
	}

	// The memoized count died with the mutation: same URL runs again and
	// sees the new triangle.
	c3 := getJSON(t, client, countURL, 200)
	if c3["origin"] != "run" {
		t.Fatalf("post-mutation count origin = %v, want run", c3["origin"])
	}
	if c3["triangles"].(float64) != t0+1 {
		t.Fatalf("post-mutation triangles = %v, want %v", c3["triangles"], t0+1)
	}
	if c4 := getJSON(t, client, countURL, 200); c4["origin"] != "cache" {
		t.Fatalf("re-repeat origin = %v, want cache", c4["origin"])
	}
	est = postJSON(t, client, ts.URL+"/v1/graphs/lv/estimate", nil, 200)
	if est["estimate"].(float64) != t0+1 {
		t.Fatalf("post-mutation estimate = %v, want %v", est["estimate"], t0+1)
	}

	// Deleting one of the new edges takes the triangle away again.
	postJSON(t, client, ts.URL+"/v1/graphs/lv/edges", mutateRequest{
		Delete: [][2]uint32{{301, 302}},
	}, 200)
	c5 := getJSON(t, client, countURL, 200)
	if c5["origin"] != "run" || c5["triangles"].(float64) != t0 {
		t.Fatalf("post-delete count = %v, want run with %v", c5, t0)
	}

	// Invalid batches are rejected without touching the cache or the
	// generation.
	postJSON(t, client, ts.URL+"/v1/graphs/lv/edges", mutateRequest{
		Insert: [][2]uint32{{7, 7}},
	}, http.StatusBadRequest)
	postJSON(t, client, ts.URL+"/v1/graphs/lv/edges", mutateRequest{}, http.StatusBadRequest)
	if c6 := getJSON(t, client, countURL, 200); c6["origin"] != "cache" {
		t.Fatalf("count after rejected batch origin = %v, want cache", c6["origin"])
	}

	// Listing endpoints and distributed counts refuse live graphs; the
	// mutation endpoints refuse plain ones.
	getJSON(t, client, ts.URL+"/v1/graphs/lv/triangles", http.StatusBadRequest)
	getJSON(t, client, ts.URL+"/v1/graphs/lv/degrees", http.StatusBadRequest)
	getJSON(t, client, ts.URL+"/v1/graphs/lv/count?distributed=1", http.StatusBadRequest)
	postJSON(t, client, ts.URL+"/v1/graphs/ro/edges", mutateRequest{
		Insert: [][2]uint32{{300, 301}},
	}, http.StatusBadRequest)
	postJSON(t, client, ts.URL+"/v1/graphs/ro/compact", nil, http.StatusBadRequest)

	// Compaction folds the delta into a gen-1 snapshot; results are
	// preserved, so the memoized count survives.
	comp := postJSON(t, client, ts.URL+"/v1/graphs/lv/compact", nil, 200)
	st := comp["stats"].(map[string]any)
	if st["gen"].(float64) != 1 || st["delta_edges"].(float64) != 0 {
		t.Fatalf("post-compact stats = %v", st)
	}
	if c7 := getJSON(t, client, countURL, 200); c7["origin"] != "cache" || c7["triangles"].(float64) != t0 {
		t.Fatalf("post-compact count = %v", c7)
	}

	// Status carries the live block; the gauges see one live graph, the
	// applied batches, and the compaction.
	status := getJSON(t, client, ts.URL+"/v1/graphs/lv", 200)
	if status["live"] != true || status["mut_gen"].(float64) != 2 {
		t.Fatalf("live status = %v", status)
	}
	m := scrapeMetrics(t, client, ts.URL)
	if m["pdtl_live_graphs"] != 1 {
		t.Fatalf("pdtl_live_graphs = %d, want 1", m["pdtl_live_graphs"])
	}
	if m["pdtl_mutation_batches"] != 2 || m["pdtl_edges_applied"] != 4 {
		t.Fatalf("mutation counters = %d batches / %d edges, want 2/4",
			m["pdtl_mutation_batches"], m["pdtl_edges_applied"])
	}
	if m["pdtl_live_delta_edges"] != 0 || m["pdtl_live_compactions"] != 1 {
		t.Fatalf("live gauges = %d delta / %d compactions, want 0/1",
			m["pdtl_live_delta_edges"], m["pdtl_live_compactions"])
	}
}

// TestServerLiveCountReportsViewBatches pins mut_gen to the view a count
// ran on: a batch applied straight to the overlay, with no handler to bump
// the entry, is already in the next count's mut_gen; a cache hit reports
// the batches of the view its value was counted on; and the mutate,
// estimate and status replies agree with the count once a handler batch
// lands.
func TestServerLiveCountReportsViewBatches(t *testing.T) {
	base := genStore(t, 7, 3)
	svc := New(Config{RunSlots: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()

	postJSON(t, client, ts.URL+"/v1/graphs",
		registerRequest{Name: "lv", Base: base, Live: true}, http.StatusCreated)
	e, err := svc.Registry().Get("lv")
	if err != nil {
		t.Fatal(err)
	}
	// The window a count opens between Apply and Invalidate, held open:
	// the overlay holds the batch, the entry has not heard of it.
	if err := e.Live().Apply([]pdtl.LiveUpdate{{U: 300, V: 301}}); err != nil {
		t.Fatal(err)
	}
	countURL := ts.URL + "/v1/graphs/lv/count?workers=2"
	if c := getJSON(t, client, countURL, 200); c["origin"] != "run" || c["mut_gen"] != 1.0 {
		t.Fatalf("count after one applied batch = %v, want run at mut_gen 1", c)
	}
	// A second batch past the handler leaves the memoized count in place;
	// the hit names the view it was counted on, not the overlay's latest.
	if err := e.Live().Apply([]pdtl.LiveUpdate{{U: 301, V: 302}}); err != nil {
		t.Fatal(err)
	}
	if c := getJSON(t, client, countURL, 200); c["origin"] != "cache" || c["mut_gen"] != 1.0 {
		t.Fatalf("repeat count = %v, want cache at mut_gen 1", c)
	}
	mut := postJSON(t, client, ts.URL+"/v1/graphs/lv/edges", mutateRequest{
		Insert: [][2]uint32{{300, 302}},
	}, 200)
	if mut["mut_gen"] != 3.0 {
		t.Fatalf("mutate reply = %v, want mut_gen 3", mut)
	}
	c := getJSON(t, client, countURL, 200)
	if c["origin"] != "run" || c["mut_gen"] != 3.0 {
		t.Fatalf("count after the handler's batch = %v, want run at mut_gen 3", c)
	}
	est := postJSON(t, client, ts.URL+"/v1/graphs/lv/estimate", nil, 200)
	if est["mut_gen"] != 3.0 || est["estimate"] != c["triangles"] {
		t.Fatalf("live estimate = %v, want mut_gen 3 and the count's %v triangles", est, c["triangles"])
	}
	if st := getJSON(t, client, ts.URL+"/v1/graphs/lv", 200); st["mut_gen"] != 3.0 {
		t.Fatalf("live status = %v, want mut_gen 3", st)
	}
}

// TestEntryInvalidateDropsInFlightResult pins the generation guard: a run
// that is already executing when a mutation invalidates the entry still
// answers its own waiters, but its (stale) result must not be memoized.
func TestEntryInvalidateDropsInFlightResult(t *testing.T) {
	base := genStore(t, 7, 4)
	r := NewRegistry(4)
	defer r.Close()
	e, err := r.RegisterLive(context.Background(), "g", base, pdtl.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	adm := NewAdmission(2, 4)
	met := &Metrics{}

	started := make(chan struct{})
	proceed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var val any
	go func() {
		defer wg.Done()
		val, _, err = e.Do(context.Background(), context.Background(), "k", adm, met,
			func(context.Context) (any, error) {
				close(started)
				<-proceed
				return "stale", nil
			})
	}()
	<-started
	e.Invalidate() // the mutation lands mid-run
	close(proceed)
	wg.Wait()
	if err != nil || val != "stale" {
		t.Fatalf("in-flight Do = %v, %v", val, err)
	}
	if n := e.CachedResults(); n != 0 {
		t.Fatalf("stale result was memoized (%d cached)", n)
	}
	// The next identical request runs fresh rather than hitting a cache.
	_, origin, err := e.Do(context.Background(), context.Background(), "k", adm, met,
		func(context.Context) (any, error) { return "fresh", nil })
	if err != nil || origin != OriginRun {
		t.Fatalf("post-invalidate Do origin = %v, %v, want run", origin, err)
	}
	if n := e.CachedResults(); n != 1 {
		t.Fatalf("fresh result not memoized (%d cached)", n)
	}
	// The fresh result is memoized under the new generation.
	_, origin, err = e.Do(context.Background(), context.Background(), "k", adm, met,
		func(context.Context) (any, error) { return "unused", nil })
	if err != nil || origin != OriginCache {
		t.Fatalf("repeat Do origin = %v, %v, want cache", origin, err)
	}
}
