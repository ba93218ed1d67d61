package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdtl/internal/graph"
	"pdtl/internal/orient"
)

// cachedMem is the fixed window every cached /count asks for (the engine's
// default spelled out); cold counts ask for cachedMem+k with k unique in
// the run, so each is a cache miss that does the same work.
const cachedMem = 1 << 22

// serveClients is how many closed-loop clients drive pdtl-serve. One: the
// client and the server handling its request are two busy threads, which is
// all a 2-core box has; with two clients (four threads on two cores) the
// script's wall measured the kernel's scheduler, not the service, and spread
// by 20–35 % from run to run.
const serveClients = 1

// serve is a set-up copy of serve-mixed: a real pdtl-serve subprocess with
// two pre-oriented graphs registered (g for counts, s for streams), driven
// by serveClients closed-loop clients over one keep-alive connection each.
// One op is the whole fixed script: every client runs one cycle of {1 cold
// count on g, CachedPerCycle cached counts on g, 1 full NDJSON stream of s}.
type serve struct {
	cfg     *runConfig
	g, s    inputGraph
	gBase   string
	srv     *child
	addr    string
	clients []*http.Client
	coldSeq atomic.Int64

	// Samples over every op of the run, for the per-layer report.
	mu         sync.Mutex
	coldMS     []float64 // client-side latency of cold counts
	coldOverMS []float64 // … minus the reply's own wall_ns
	cachedMS   []float64
	streamSec  []float64 // wall of each stream
	requests   int
	opSeconds  float64
}

// countReply is the part of GET /v1/graphs/{name}/count the bench reads.
type countReply struct {
	Origin    string          `json:"origin"`
	Triangles uint64          `json:"triangles"`
	WallNS    int64           `json:"wall_ns"`
	Trace     json.RawMessage `json:"trace"`
}

func newServe(ctx context.Context, cfg *runConfig, man *manifest, dir string) (instance, error) {
	s := &serve{cfg: cfg, g: man.Graphs[0], s: man.Graphs[1], gBase: filepath.Join(dir, "g.oriented")}
	sBase := filepath.Join(dir, "s.oriented")
	for src, dst := range map[string]string{s.g.Path: s.gBase, s.s.Path: sBase} {
		if _, err := orient.OrientFormat(src, dst, cfg.P, graph.FormatPlain); err != nil {
			return nil, fmt.Errorf("pre-orient: %w", err)
		}
	}
	var err error
	if s.addr, err = freeLoopbackAddr(); err != nil {
		return nil, err
	}
	s.srv, err = startChild(cfg.P, false, filepath.Join(cfg.BinDir, "pdtl-serve"),
		"-addr", s.addr, "-slots", strconv.Itoa(cfg.P), "-workers", "1",
		"-graph", "g="+s.gBase, "-graph", "s="+sBase)
	if err != nil {
		return nil, err
	}
	if err := waitHealthz(ctx, s.srv, s.addr); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	// Prime the cached key, so every cached count of every op is a hit.
	if _, _, err := s.count(ctx, s.clients[0], cachedMem, false); err != nil {
		s.close()
		return nil, fmt.Errorf("prime cache: %w", err)
	}
	return s, nil
}

func (s *serve) pids() []int { return []int{s.srv.pid()} }

func (s *serve) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.srv.stop()
}

// count issues one GET /count on g and returns the reply and the client-side
// latency.
func (s *serve) count(ctx context.Context, c *http.Client, mem int64, trace bool) (countReply, time.Duration, error) {
	url := fmt.Sprintf("http://%s/v1/graphs/g/count?mem=%d", s.addr, mem)
	if trace {
		url += "&trace=1"
	}
	var reply countReply
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return reply, 0, err
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, lat, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return reply, lat, json.Unmarshal(body, &reply)
}

// stream reads the full NDJSON listing of s and returns its triangle count,
// order-independent checksum and wall time.
func (s *serve) stream(ctx context.Context, c *http.Client) (n, sum uint64, wall time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/v1/graphs/s/triangles", nil)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("GET /triangles: %s", resp.Status)
	}
	br := bufio.NewReaderSize(resp.Body, 256<<10)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			u, v, w, ok := parseTriangleLine(line)
			if !ok {
				return 0, 0, 0, fmt.Errorf("bad NDJSON triangle line %q", line)
			}
			n++
			sum += triangleMix(u, v, w)
		}
		if err == io.EOF {
			return n, sum, time.Since(start), nil
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
}

// parseTriangleLine reads the three numbers of a {"u":1,"v":2,"w":3} line
// without a JSON decoder in the way (the stream is millions of lines).
func parseTriangleLine(line []byte) (u, v, w uint32, ok bool) {
	var vals [3]uint64
	k, in := 0, false
	for _, c := range line {
		if c >= '0' && c <= '9' {
			if !in {
				if k == 3 {
					return 0, 0, 0, false
				}
				in = true
			}
			vals[k] = vals[k]*10 + uint64(c-'0')
		} else if in {
			in = false
			k++
		}
	}
	if in {
		k++
	}
	return uint32(vals[0]), uint32(vals[1]), uint32(vals[2]), k == 3
}

func (s *serve) op(ctx context.Context, rec *recorder, parent int) (opResult, error) {
	before, err := s.scrape(ctx)
	if err != nil {
		return opResult{}, err
	}
	start := time.Now()
	tallies := make([]tally, len(s.clients))
	var wg sync.WaitGroup
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// On the traced rep client 0 is the one whose requests are
			// spanned (and whose cold count asks for the run's trace).
			var crec *recorder
			if i == 0 {
				crec = rec
			}
			tallies[i] = s.cycle(ctx, c, crec, parent)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := s.scrape(ctx)
	if err != nil {
		return opResult{}, err
	}
	out := opResult{
		IOBytes: int64(after["pdtl_worker_bytes_read"] + after["pdtl_source_bytes_read"] -
			before["pdtl_worker_bytes_read"] - before["pdtl_source_bytes_read"]),
	}
	for _, t := range tallies {
		out.Attempted += t.attempted
		out.Failed += t.failed
	}
	s.mu.Lock()
	s.requests += out.Attempted
	s.opSeconds += wall.Seconds()
	s.mu.Unlock()
	return out, nil
}

// tally counts one client's requests in one cycle.
type tally struct{ attempted, failed int }

// cycle is one client's share of the script: one cold count, the cached
// counts, one full stream, each verified. rec is nil unless this client's
// requests are being spanned.
func (s *serve) cycle(ctx context.Context, c *http.Client, rec *recorder, parent int) tally {
	var t tally
	fail := func(what string, err error) {
		t.failed++
		fmt.Fprintf(os.Stderr, "bench: serve-mixed: %s: %v\n", what, err)
	}

	t.attempted++
	sp := rec.begin("GET /count (cold)", parent)
	sent := time.Now()
	reply, lat, err := s.count(ctx, c, cachedMem+s.coldSeq.Add(1), rec != nil)
	rec.end(sp)
	if err == nil && (reply.Triangles != s.g.Triangles || reply.Origin != "run") {
		err = fmt.Errorf("got %d triangles origin %q, want %d origin run", reply.Triangles, reply.Origin, s.g.Triangles)
	}
	if err == nil {
		err = rec.graftChrome(sp, reply.Trace, sent.UnixNano())
	}
	if err != nil {
		fail("cold count", err)
	} else {
		s.mu.Lock()
		s.coldMS = append(s.coldMS, lat.Seconds()*1e3)
		s.coldOverMS = append(s.coldOverMS, (lat-time.Duration(reply.WallNS)).Seconds()*1e3)
		s.mu.Unlock()
	}

	sp = rec.begin("GET /count (cached, batch)", parent)
	cached := make([]float64, 0, s.cfg.Workload.CachedPerCycle)
	for k := 0; k < s.cfg.Workload.CachedPerCycle; k++ {
		t.attempted++
		reply, lat, err := s.count(ctx, c, cachedMem, false)
		if err == nil && (reply.Triangles != s.g.Triangles || reply.Origin != "cache") {
			err = fmt.Errorf("got %d triangles origin %q, want %d origin cache", reply.Triangles, reply.Origin, s.g.Triangles)
		}
		if err != nil {
			fail("cached count", err)
			continue
		}
		cached = append(cached, lat.Seconds()*1e3)
	}
	rec.end(sp)

	t.attempted++
	sp = rec.begin("GET /triangles", parent)
	n, sum, wall, err := s.stream(ctx, c)
	rec.end(sp)
	if err == nil && (n != s.s.Triangles || sum != s.s.ListSum) {
		err = fmt.Errorf("got %d triangles sum %x, want %d sum %x", n, sum, s.s.Triangles, s.s.ListSum)
	}
	if err != nil {
		fail("stream", err)
	}
	s.mu.Lock()
	s.cachedMS = append(s.cachedMS, cached...)
	if err == nil {
		s.streamSec = append(s.streamSec, wall.Seconds())
	}
	s.mu.Unlock()
	return t
}

// scrape reads GET /metrics into a name → value map. Histogram bucket
// series keep their {le="…"} label in the name.
func (s *serve) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.clients[0].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}

// histogramQuantile estimates quantile q of the Prometheus histogram name
// in a scrape, interpolating linearly inside the bucket that holds it.
func histogramQuantile(m map[string]float64, name string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var buckets []bucket
	prefix := name + `_bucket{le="`
	for k, v := range m {
		if rest, ok := strings.CutPrefix(k, prefix); ok {
			if le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64); err == nil {
				buckets = append(buckets, bucket{le, v}) // "+Inf" parses as +Inf
			}
		}
	}
	if len(buckets) == 0 {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			if math.IsInf(b.le, 1) { // no upper bound to interpolate to
				return lo
			}
			if b.count == below {
				return b.le
			}
			return lo + (b.le-lo)*(rank-below)/(b.count-below)
		}
		lo, below = b.le, b.count
	}
	return lo
}

func (s *serve) sampleNotes() []string {
	return []string{fmt.Sprintf("serve-mixed script samples on the last set-up copy: %d cold counts, %d cached counts, %d streams",
		len(s.coldMS), len(s.cachedMS), len(s.streamSec))}
}

func (s *serve) layers(ctx context.Context, ms metricSet) error {
	m, err := s.scrape(ctx)
	if err != nil {
		return err
	}
	ms["cold_count_ms_p50"] = median(s.coldMS)
	ms["cached_count_ms_p50"] = median(s.cachedMS)
	ms["service.cold_overhead_ms"] = median(s.coldOverMS)
	ms["service.cached_ms_p99"] = tailPercentile(s.cachedMS, 99)
	var rates, perTri []float64
	for _, sec := range s.streamSec {
		rates = append(rates, float64(s.s.Triangles)/1e6/sec)
		perTri = append(perTri, sec*1e9/float64(s.s.Triangles))
	}
	ms["stream_mtri_per_s"] = median(rates)
	ms["service.stream_ns_per_tri"] = median(perTri)
	ms["service.queue_wait_ms_p50"] = histogramQuantile(m, "pdtl_queue_wait_seconds", 0.5) * 1e3
	if lookups := m["pdtl_cache_hits"] + m["pdtl_cache_misses"]; lookups > 0 {
		ms["service.cache_hit_ratio"] = m["pdtl_cache_hits"] / lookups
	}
	ms["service.engine_runs"] = m["pdtl_runs_started"]
	ms["service.shed_total"] = m["pdtl_admission_shed"]
	ms["service.req_per_s"] = float64(s.requests) / s.opSeconds
	_, err = probeStore(ms, s.gBase, 1) // pdtl-serve runs every count with one worker
	return err
}
