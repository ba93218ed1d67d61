// End-to-end: the service on the tiny smoke graph, with the exact
// triangle count cross-checked against the in-memory reference
// implementation (internal/baseline). CI runs this race-enabled; the
// shell-level counterpart (built pdtl-serve binary + curl) lives in the
// workflow's serve-smoke job.
package service_test

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/service"
)

func TestE2ETinyMatchesBaseline(t *testing.T) {
	// tiny is the graph CI's smoke jobs build with `pdtl-gen powerlaw -n
	// 1024 -m 8192 -exponent 2.0 -seed 109`: skewed, so the workers'
	// shares are uneven.
	csr, err := gen.PowerLaw(1<<10, 1<<13, 2.0, 109)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Forward(csr)
	if want == 0 {
		t.Fatal("baseline found no triangles in the tiny graph")
	}
	base := filepath.Join(t.TempDir(), "tiny")
	if err := graph.WriteCSR(base, "tiny", csr); err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{RunSlots: 2, QueueDepth: 8})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	defer svc.Shutdown(context.Background())
	client := ts.Client()

	// Register over the API.
	body, _ := json.Marshal(map[string]string{"name": "tiny", "base": base})
	resp, err := client.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d", resp.StatusCode)
	}

	// Exact count must match the in-memory reference.
	resp, err = client.Get(ts.URL + "/v1/graphs/tiny/count?workers=2")
	if err != nil {
		t.Fatal(err)
	}
	var count struct {
		Triangles uint64 `json:"triangles"`
		Origin    string `json:"origin"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&count); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if count.Triangles != want {
		t.Fatalf("service count = %d, baseline = %d", count.Triangles, want)
	}
	if count.Origin != "run" {
		t.Fatalf("cold count origin = %q", count.Origin)
	}

	// The full NDJSON stream has exactly one line per triangle, and its
	// triangles are the reference's, in the ids the dataset was written
	// with (the oriented store the service runs on is ranked).
	var ref [][3]uint32
	baseline.ForwardList(csr, func(u, v, w uint32) { ref = append(ref, [3]uint32{u, v, w}) })
	resp, err = client.Get(ts.URL + "/v1/graphs/tiny/triangles?workers=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var streamed [][3]uint32
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var tri struct{ U, V, W uint32 }
		if err := json.Unmarshal([]byte(line), &tri); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		streamed = append(streamed, [3]uint32{tri.U, tri.V, tri.W})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if uint64(len(streamed)) != want {
		t.Fatalf("streamed %d triangles, baseline = %d", len(streamed), want)
	}
	if !slices.Equal(asSet(streamed), asSet(ref)) {
		t.Fatal("the streamed triangles are not the reference's in the dataset's ids")
	}

	// /degrees?top=K names the vertices by the dataset's ids too.
	const k = 10
	perVertex := make([]uint64, csr.NumVertices())
	for _, tri := range ref {
		for _, v := range tri {
			perVertex[v]++
		}
	}
	var wantTop []vertexTriangles
	for v, c := range perVertex {
		if c > 0 {
			wantTop = append(wantTop, vertexTriangles{Vertex: uint32(v), Triangles: c})
		}
	}
	slices.SortStableFunc(wantTop, func(a, b vertexTriangles) int { return cmp.Compare(b.Triangles, a.Triangles) })
	wantTop = wantTop[:min(k, len(wantTop))]
	dresp, err := client.Get(ts.URL + "/v1/graphs/tiny/degrees?workers=2&top=" + strconv.Itoa(k))
	if err != nil {
		t.Fatal(err)
	}
	var degrees struct {
		Top []vertexTriangles `json:"top"`
	}
	err = json.NewDecoder(dresp.Body).Decode(&degrees)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(degrees.Top, wantTop) {
		t.Fatalf("degrees top %d = %v, want %v", k, degrees.Top, wantTop)
	}

	// Health and metrics reflect the runs.
	resp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp, err = client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "pdtl_runs_started 3") {
		t.Errorf("metrics missing the three runs:\n%s", metrics)
	}
}

type vertexTriangles struct {
	Vertex    uint32 `json:"vertex"`
	Triangles uint64 `json:"triangles"`
}

// asSet sorts each triple's vertices, then the triples.
func asSet(ts [][3]uint32) [][3]uint32 {
	out := slices.Clone(ts)
	for i := range out {
		slices.Sort(out[i][:])
	}
	slices.SortFunc(out, func(a, b [3]uint32) int { return slices.Compare(a[:], b[:]) })
	return out
}
