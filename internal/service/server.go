package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"log/slog"
	"net/http"
	"net/url"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pdtl"
	"pdtl/internal/mgt"
	"pdtl/internal/obs"
	"pdtl/internal/scan"
)

// Config parameterizes a Server.
type Config struct {
	// MaxGraphs is the registry's LRU bound on open graph handles;
	// non-positive selects 16.
	MaxGraphs int
	// RunSlots bounds concurrently executing engine runs; non-positive
	// selects the CPU count.
	RunSlots int
	// QueueDepth bounds the requests allowed to wait for a run slot;
	// negative means no waiting, zero selects 32.
	QueueDepth int
	// Defaults seeds every run's options; individual requests override
	// knobs per query parameter (workers, mem, store, ...).
	Defaults pdtl.Options
	// ClusterAddrs, when non-empty, are the PDTL worker nodes
	// `?distributed=1` counts run against (via Graph.CountDistributed).
	ClusterAddrs []string
	// ClusterDefaults seeds distributed runs the same way Defaults seeds
	// local ones.
	ClusterDefaults pdtl.ClusterOptions
	// Log receives structured operational events: run start/finish (with
	// the memoization key as the run id and the phase breakdown) and
	// cluster node failures. Nil discards them.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 16
	}
	if c.RunSlots <= 0 {
		c.RunSlots = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 32
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Log == nil {
		c.Log = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the triangle query service: the registry, admission controller,
// result cache, and metrics behind one http.Handler. Create it with New,
// mount it on any net/http server, and stop it with Shutdown (which drains
// queued requests with 503s, cancels in-flight engine runs, and closes
// every graph handle).
type Server struct {
	cfg Config
	reg *Registry
	adm *Admission
	met *Metrics
	mux *http.ServeMux

	// obsReg renders /metrics; graphRuns and graphHits are its per-graph
	// labeled counter families (new names — the unlabeled totals above keep
	// their original series).
	obsReg    *obs.Registry
	graphRuns *obs.CounterVec
	graphHits *obs.CounterVec

	// baseCtx is every engine run's ancestor context; Shutdown cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// mu guards draining and orders enter() against Shutdown's wait: a
	// handler joins wg only while not draining, so the wait can never
	// race a request that slipped past a lock-free check.
	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup // in-flight request handlers
	started  time.Time
}

// New creates a Server. It is ready to serve immediately; graphs are
// registered via POST /v1/graphs or pre-loaded with RegisterGraph.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        NewRegistry(cfg.MaxGraphs),
		adm:        NewAdmission(cfg.RunSlots, cfg.QueueDepth),
		met:        &Metrics{},
		mux:        http.NewServeMux(),
		baseCtx:    ctx,
		baseCancel: cancel,
		started:    time.Now(),
	}
	s.initMetrics()
	// The route table. Health and metrics answer even while draining; every
	// other route runs through api, and the graph-scoped run routes through
	// graph.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/graphs", s.api(s.handleRegister))
	s.mux.HandleFunc("GET /v1/graphs", s.api(s.handleList))
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.api(s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.api(s.handleEvict))
	s.mux.HandleFunc("GET /v1/graphs/{name}/count", s.graph(s.handleCount))
	s.mux.HandleFunc("GET /v1/graphs/{name}/triangles", s.graph(s.handleTriangles))
	s.mux.HandleFunc("GET /v1/graphs/{name}/degrees", s.graph(s.handleDegrees))
	s.mux.HandleFunc("POST /v1/graphs/{name}/estimate", s.graph(s.handleEstimate))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Registry exposes the graph registry (for pre-loading and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the counter set.
func (s *Server) Metrics() *Metrics { return s.met }

// RegisterGraph opens the store at base and registers it under name —
// the programmatic form of POST /v1/graphs, used by pdtl-serve's -graph
// flags.
func (s *Server) RegisterGraph(name, base string) error {
	_, err := s.registerEntry(name, base)
	return err
}

func (s *Server) registerEntry(name, base string) (*Entry, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	e, err := s.reg.Register(name, base)
	if err == nil {
		s.met.Registered.Add(1)
	}
	return e, err
}

// Shutdown drains the service: queued requests fail with 503, in-flight
// engine runs (including streaming listings) are cancelled through the
// normal context plumbing, and once every handler has returned the graph
// handles are closed. ctx bounds the wait. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.adm.Close()
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.reg.Close()
	return err
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"graphs":    s.reg.Len(),
		"uptime_ns": time.Since(s.started).Nanoseconds(),
	})
}

// initMetrics builds the obs registry /metrics renders from: the Metrics
// atomics bridged as counters, gauge closures sampled at scrape time, the
// build-info constant, and the per-graph labeled counter families.
// Registration order is render order, fixed for the process lifetime.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	s.met.registerWith(r)

	r.GaugeFunc("pdtl_run_slots", "Admission slots configured.",
		func() float64 { return float64(s.adm.Slots()) })
	r.GaugeFunc("pdtl_run_slots_in_use", "Admission slots currently held by runs.",
		func() float64 { return float64(s.adm.InUse()) })
	r.GaugeFunc("pdtl_run_queue_depth", "Requests waiting for an admission slot.",
		func() float64 { return float64(s.adm.QueueDepth()) })
	r.GaugeFunc("pdtl_graphs_open", "Graphs currently registered.",
		func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc("pdtl_uptime_seconds", "Whole seconds since the server started.",
		func() float64 { return float64(int64(time.Since(s.started).Seconds())) })
	r.GaugeFunc("pdtl_draining", "1 while the server is shutting down, else 0.",
		func() float64 {
			if s.isDraining() {
				return 1
			}
			return 0
		})
	r.CounterFunc("pdtl_runs_admitted", "Requests granted an admission slot.",
		func() float64 { admitted, _, _ := s.adm.Counters(); return float64(admitted) })
	r.CounterFunc("pdtl_admission_shed", "Requests rejected because the admission queue was full.",
		func() float64 { _, rejected, _ := s.adm.Counters(); return float64(rejected) })
	r.CounterFunc("pdtl_admission_queued", "Requests that waited in the admission queue.",
		func() float64 { _, _, queued := s.adm.Counters(); return float64(queued) })
	r.ConstGauge("pdtl_build_info", "Build metadata; the value is always 1.",
		buildInfoLabels(), 1)
	s.graphRuns = r.CounterVec("pdtl_graph_runs_total",
		"Engine runs executed, by graph.", "graph")
	s.graphHits = r.CounterVec("pdtl_graph_cache_hits_total",
		"Result-cache hits, by graph.", "graph")
	s.obsReg = r
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obsReg.WriteText(w)
}

// registerRequest is the POST /v1/graphs body.
type registerRequest struct {
	// Name is the handle clients address the graph by.
	Name string `json:"name"`
	// Base is the on-disk store path (as produced by pdtl-gen / WriteGraph).
	Base string `json:"base"`
	// Live is refused when true: live graphs were removed, and a caller who
	// mutates a graph rebuilds its store and registers it again.
	Live bool `json:"live"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

func validateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("service: invalid graph name %q (want [A-Za-z0-9][A-Za-z0-9._-]{0,127})", name)
	}
	return nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) error {
	var req registerRequest
	if err := decodeBody(w, r, 1<<20, "register", &req); err != nil {
		return err
	}
	if req.Live {
		return badf("service: live graphs were removed: rebuild the store and register it again")
	}
	if req.Base == "" {
		return badf("service: register needs a store base path")
	}
	e, err := s.registerEntry(req.Name, req.Base)
	if err != nil {
		return badRequest{err}
	}
	writeJSON(w, http.StatusCreated, graphStatus(e))
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) error {
	entries := s.reg.Snapshot()
	list := make([]map[string]any, len(entries))
	for i, e := range entries {
		list[i] = graphStatus(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(list), "graphs": list})
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) error {
	e, err := s.reg.Get(r.PathValue("name"))
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, graphStatus(e))
	return nil
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("name")
	if !s.reg.Evict(name) {
		return fmt.Errorf("%w: %q", ErrUnknownGraph, name)
	}
	s.met.Evicted.Add(1)
	writeJSON(w, http.StatusOK, map[string]any{"evicted": name})
	return nil
}

// countResponse is the GET /v1/graphs/{name}/count reply (local and
// distributed).
type countResponse struct {
	Graph     string `json:"graph"`
	Key       string `json:"key"`
	Origin    Origin `json:"origin"`
	Triangles uint64 `json:"triangles"`
	// EngineRuns is the handle's lifetime engine-run counter — the
	// single-flight and cache assertions read it straight off the reply.
	EngineRuns      uint64 `json:"engine_runs"`
	WallNS          int64  `json:"wall_ns,omitempty"`
	OrientNS        int64  `json:"orient_ns,omitempty"`
	SourceBytesRead int64  `json:"source_bytes_read"`
	Workers         int    `json:"workers,omitempty"`
	Distributed     bool   `json:"distributed,omitempty"`
	Nodes           int    `json:"nodes,omitempty"`
	NetworkBytes    int64  `json:"network_bytes,omitempty"`
	// Failures surfaces the cluster fault-tolerance layer's per-run
	// failure log: worker failures the run detected and recovered from.
	// The count is exact regardless — a non-empty list only means the run
	// completed degraded (DESIGN.md §9).
	Failures []nodeFailureJSON `json:"failures,omitempty"`
	// Trace is the run's phase trace (memoRun.trace), present only under
	// ?trace=1 on the request that executed the run.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// nodeFailureJSON is pdtl.NodeFailure shaped for the HTTP API.
type nodeFailureJSON struct {
	Node    string `json:"node,omitempty"`
	Addr    string `json:"addr"`
	Chunk   int    `json:"chunk"`
	Retries int    `json:"retries"`
	Error   string `json:"error"`
}

func (s *Server) handleCount(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	q := r.URL.Query()
	if boolParam(q, "distributed") {
		return s.countDistributed(ctx, w, e, q)
	}
	opt, err := s.parseOptions(q)
	if err != nil {
		return err
	}
	key, m, err := s.count(ctx, e, opt, boolParam(q, "trace"))
	if err != nil {
		return err
	}
	res := m.val.(*pdtl.Result)
	writeJSON(w, http.StatusOK, countResponse{
		Graph:           e.Name(),
		Key:             key,
		Origin:          m.origin,
		Triangles:       res.Triangles,
		EngineRuns:      e.Graph().Runs(),
		WallNS:          res.TotalTime.Nanoseconds(),
		OrientNS:        res.OrientTime.Nanoseconds(),
		SourceBytesRead: res.SourceBytesRead,
		Workers:         len(res.Workers),
		Trace:           m.trace,
	})
	return nil
}

// count memoizes one local exact count of e under count|<opt.Key()>.
func (s *Server) count(ctx context.Context, e *Entry, opt pdtl.Options, traced bool) (string, memoRun, error) {
	key, err := opt.Key()
	if err != nil {
		return "", memoRun{}, badRequest{err}
	}
	m, err := s.memo(ctx, e, "count", key, traced,
		func(runCtx context.Context) (any, error) {
			return e.Graph().Count(runCtx, opt)
		})
	return key, m, err
}

// traceJSON renders a trace for embedding in a JSON reply; nil in, nil
// out.
func traceJSON(tr *obs.Trace) json.RawMessage {
	if tr == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes()))
}

// countDistributed satisfies ?distributed=1 via the cluster protocol
// against the configured worker nodes, memoized like local counts.
func (s *Server) countDistributed(ctx context.Context, w http.ResponseWriter, e *Entry, q url.Values) error {
	if len(s.cfg.ClusterAddrs) == 0 {
		return badf("service: no cluster worker nodes configured (pdtl-serve -cluster)")
	}
	opt, err := s.parseClusterOptions(q)
	if err != nil {
		return err
	}
	key, err := opt.Key(s.cfg.ClusterAddrs)
	if err != nil {
		return badRequest{err}
	}
	m, err := s.memo(ctx, e, "cluster", key, boolParam(q, "trace"),
		func(runCtx context.Context) (any, error) {
			return e.Graph().CountDistributed(runCtx, s.cfg.ClusterAddrs, opt)
		})
	if err != nil {
		return err
	}
	res := m.val.(*pdtl.ClusterResult)
	var failures []nodeFailureJSON
	for _, f := range res.Failures {
		failures = append(failures, nodeFailureJSON{
			Node: f.Node, Addr: f.Addr, Chunk: f.Chunk, Retries: f.Retries, Error: f.Err,
		})
	}
	writeJSON(w, http.StatusOK, countResponse{
		Graph:        e.Name(),
		Key:          key,
		Origin:       m.origin,
		Triangles:    res.Triangles,
		EngineRuns:   e.Graph().Runs(),
		WallNS:       res.TotalTime.Nanoseconds(),
		OrientNS:     res.OrientTime.Nanoseconds(),
		Distributed:  true,
		Nodes:        len(res.Nodes),
		NetworkBytes: res.NetworkBytes,
		Failures:     failures,
		Trace:        m.trace,
	})
	return nil
}

// appendTriangleLine appends t's NDJSON line, {"u":U,"v":V,"w":W} and a
// newline, to dst.
func appendTriangleLine(dst []byte, t [3]uint32) []byte {
	dst = append(dst, `{"u":`...)
	dst = strconv.AppendUint(dst, uint64(t[0]), 10)
	dst = append(dst, `,"v":`...)
	dst = strconv.AppendUint(dst, uint64(t[1]), 10)
	dst = append(dst, `,"w":`...)
	dst = strconv.AppendUint(dst, uint64(t[2]), 10)
	return append(dst, "}\n"...)
}

func (s *Server) handleTriangles(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	q := r.URL.Query()
	opt, err := s.parseOptions(q)
	if err != nil {
		return err
	}
	var limit uint64
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.ParseUint(v, 10, 64); err != nil {
			return badf("service: bad limit: %w", err)
		}
	}
	// Streams are admission-controlled like any other engine run, but never
	// memoized: their product is the listing itself.
	release, err := acquireTimed(ctx, s.adm, s.met)
	if err != nil {
		return err
	}
	defer release()
	s.met.RunsStarted.Add(1)
	s.met.StreamsStarted.Add(1)
	// The iterator streams straight off the engine: breaking (limit) or
	// a dead client (ctx cancelled by net/http) cancels the run, tearing
	// the runners down within one memory window.
	seq, done := e.Graph().Triangles(ctx, opt)
	sent, stopped := writeNDJSON(w, seq, limit)
	s.met.TrianglesSent.Add(sent)
	res, err := done()
	if err != nil {
		s.met.StreamsBroken.Add(1)
		s.met.RunsFailed.Add(1)
		// The 200 header is long gone, so a clean end-of-stream here
		// would be indistinguishable from a complete listing. Abort the
		// connection instead: the client sees a truncated chunked body,
		// not a plausible-but-short triangle set. (On a client
		// disconnect the connection is already dead and the abort is a
		// no-op.)
		panic(http.ErrAbortHandler)
	}
	if stopped {
		// Our own limit ended the run: the stream is short of the
		// listing, but the run did not fail.
		s.met.StreamsBroken.Add(1)
		return nil
	}
	s.met.RunsCompleted.Add(1)
	// The run's wall time counts as any run's does. Its bytes stay out
	// of pdtl_*_bytes_read for now: bench/'s serve-mixed workload
	// reports the sum of those two counters as its io_read_mb, so
	// counting streams there has to come with a revision of it.
	s.met.RunDuration.ObserveDuration(res.TotalTime)
	return nil
}

// writeNDJSON answers 200 and writes seq's triangles to w as NDJSON lines,
// stopping after limit of them when limit is positive. It reports how many
// it sent and whether the limit stopped it.
func writeNDJSON(w http.ResponseWriter, seq iter.Seq[[3]uint32], limit uint64) (sent uint64, stopped bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 64<<10)
	flusher, _ := w.(http.Flusher)
	// The client gets the stream one full buffer at a time, and the rest at
	// the end.
	flush := func() {
		bw.Flush()
		if flusher != nil {
			flusher.Flush()
		}
	}
	var line []byte
	for t := range seq {
		line = appendTriangleLine(line[:0], t)
		if bw.Available() < len(line) {
			flush()
		}
		bw.Write(line)
		sent++
		if limit > 0 && sent >= limit {
			stopped = true
			break
		}
	}
	flush()
	return sent, stopped
}

// degreesValue is the memoized product of one TriangleDegrees run.
type degreesValue struct {
	counts []uint64
	res    *pdtl.Result
}

// vertexDegree is one row of the degrees reply.
type vertexDegree struct {
	Vertex    uint32 `json:"vertex"`
	Triangles uint64 `json:"triangles"`
}

func (s *Server) handleDegrees(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	q := r.URL.Query()
	opt, err := s.parseOptions(q)
	if err != nil {
		return err
	}
	top := 50
	if v := q.Get("top"); v != "" {
		if top, err = strconv.Atoi(v); err != nil || top < 1 {
			return badf("service: bad top %q", v)
		}
	}
	if _, err := opt.Key(); err != nil {
		return badRequest{err}
	}
	// Per-vertex counts are the same under every option, so the graph holds
	// one memoized set of them, whichever options ran it.
	m, err := s.memo(ctx, e, "degrees", "", false,
		func(runCtx context.Context) (any, error) {
			counts, res, err := e.Graph().TriangleDegrees(runCtx, opt)
			if err != nil {
				return nil, err
			}
			return degreesValue{counts: counts, res: res}, nil
		})
	if err != nil {
		return err
	}
	dv := m.val.(degreesValue)
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":     e.Name(),
		"origin":    m.origin,
		"triangles": dv.res.Triangles,
		"vertices":  len(dv.counts),
		"top":       topDegrees(dv.counts, top),
	})
	return nil
}

// topDegrees extracts the k vertices with the most incident triangles,
// descending (ties by vertex id, so the reply is deterministic).
func topDegrees(counts []uint64, k int) []vertexDegree {
	if k > len(counts) {
		k = len(counts)
	}
	top := make([]vertexDegree, 0, k)
	for v, c := range counts {
		if c == 0 {
			continue
		}
		if len(top) < k {
			top = append(top, vertexDegree{Vertex: uint32(v), Triangles: c})
			for i := len(top) - 1; i > 0 && top[i].Triangles > top[i-1].Triangles; i-- {
				top[i], top[i-1] = top[i-1], top[i]
			}
			continue
		}
		if c <= top[k-1].Triangles {
			continue
		}
		top[k-1] = vertexDegree{Vertex: uint32(v), Triangles: c}
		for i := k - 1; i > 0 && top[i].Triangles > top[i-1].Triangles; i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
	}
	return top
}

// estimateRequest is the POST /v1/graphs/{name}/estimate body.
type estimateRequest struct {
	// Method is "" or "exact": every graph's estimate is its exact count.
	Method string `json:"method"`
}

// handleEstimate answers a graph's estimate with its exact count under the
// server's defaults. That holds only the engine's P·M window, and it shares
// the cache slot of a GET …/count without parameters, so each warms the
// other.
func (s *Server) handleEstimate(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	var req estimateRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, 1<<20, "estimate", &req); err != nil {
			return err
		}
	}
	if req.Method != "" && req.Method != "exact" {
		return badf("service: the only estimate method is %q (got %q)", "exact", req.Method)
	}
	_, m, err := s.count(ctx, e, s.cfg.Defaults, false)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":    e.Name(),
		"origin":   m.origin,
		"method":   "exact",
		"estimate": m.val.(*pdtl.Result).Triangles,
		"exact":    true,
	})
	return nil
}

// --- request plumbing ---

// api wraps one route in the path every API request takes: it joins the
// in-flight group Shutdown waits for (or is refused with 503 while
// draining), runs h, and answers an error h returns with the status
// statusFor maps it to. h writes its own reply on success.
func (s *Server) api(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := s.enter()
		if err == nil {
			defer s.wg.Done()
			err = h(w, r)
		}
		if err != nil {
			status := statusFor(err)
			if status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, map[string]any{"error": err.Error()})
		}
	}
}

// graphHandler is a graph-scoped route's own logic: e is the graph the path
// names and ctx the request's run context.
type graphHandler func(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error

// graph wraps a graph-scoped route: on top of api it looks the graph up and
// derives the request's run context (requestCtx) for h.
func (s *Server) graph(h graphHandler) http.HandlerFunc {
	return s.api(func(w http.ResponseWriter, r *http.Request) error {
		e, err := s.reg.Get(r.PathValue("name"))
		if err != nil {
			return err
		}
		ctx, cleanup, err := s.requestCtx(r)
		if err != nil {
			return err
		}
		defer cleanup()
		return h(ctx, w, r, e)
	})
}

// badRequest marks an error as the request's own fault: a malformed body
// or parameter, or options the engine refuses. statusFor answers it 400.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// badf is fmt.Errorf marked as a bad request.
func badf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// requestCtx derives the run context for one request: the client's own
// context (cancelled by net/http on disconnect), joined with the server's
// base context (cancelled by Shutdown), bounded by an optional ?timeout=
// duration — the per-request deadline mapped straight onto the engine's
// cancellation plumbing.
func (s *Server) requestCtx(r *http.Request) (context.Context, func(), error) {
	var timeout time.Duration
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, badf("service: bad timeout %q (want a positive Go duration)", v)
		}
		timeout = d
	}
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	cancelTimeout := func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	cleanup := func() {
		stop()
		cancelTimeout()
		cancel()
	}
	return ctx, cleanup, nil
}

// memoRun is how one memoized request was answered.
type memoRun struct {
	val    any
	origin Origin
	// trace is the run's phase trace in Chrome trace_event form, present
	// only when the request asked for one AND executed the run itself
	// (origin=run) — cache hits and shared joins have no trace of their own.
	trace json.RawMessage
}

// memo satisfies one memoizable request through e.Do under the cache key
// kind|key: it threads a trace cursor into the run when traced, logs the
// run's start and finish, counts the outcome per graph, and folds an
// executed run into the metrics (account).
func (s *Server) memo(ctx context.Context, e *Entry, kind, key string, traced bool,
	run func(context.Context) (any, error)) (memoRun, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace(0)
	}
	val, origin, err := e.Do(ctx, s.baseCtx, kind+"|"+key, s.adm, s.met,
		func(runCtx context.Context) (any, error) {
			if tr != nil {
				runCtx = obs.ContextWithCursor(runCtx, obs.Cursor{T: tr, Span: obs.NoSpan, Worker: -1})
			}
			s.cfg.Log.Info("run started", "graph", e.Name(), "kind", kind, "key", key)
			return run(runCtx)
		})
	if err != nil {
		return memoRun{}, err
	}
	m := memoRun{val: val, origin: origin}
	// Shared joins count in neither per-graph family: they neither ran nor
	// hit the cache.
	switch origin {
	case OriginRun:
		s.graphRuns.With(e.Name()).Add(1)
		s.account(e, kind, key, val)
		m.trace = traceJSON(tr)
	case OriginCache:
		s.graphHits.With(e.Name()).Add(1)
	}
	return m, nil
}

// account folds one executed run's I/O and wall time into the cumulative
// metrics and logs its finish. A cache hit never gets here, which is what
// the "repeat request does no source I/O" assertion measures.
func (s *Server) account(e *Entry, kind, key string, val any) {
	attrs := []any{"graph", e.Name(), "kind", kind, "key", key}
	if dv, ok := val.(degreesValue); ok {
		val = dv.res
	}
	switch res := val.(type) {
	case *pdtl.Result:
		s.met.RunDuration.ObserveDuration(res.TotalTime)
		s.met.SourceBytesRead.Add(res.SourceBytesRead)
		var worker int64
		for _, ws := range res.Workers {
			worker += ws.BytesRead
		}
		s.met.WorkerBytesRead.Add(worker)
		attrs = append(attrs, "triangles", res.Triangles, "wall", res.TotalTime,
			"orient", res.OrientTime, "plan", res.PlanTime, "calc", res.CalcTime)
	case *pdtl.ClusterResult:
		var src int64
		for _, n := range res.Nodes {
			src += n.SourceBytesRead
		}
		s.met.SourceBytesRead.Add(src)
		s.met.ClusterNodeFailures.Add(uint64(len(res.Failures)))
		s.met.RunDuration.ObserveDuration(res.TotalTime)
		// Surface degradation per failed worker — the run recovered, but the
		// operator should know which node is being carried.
		for _, f := range res.Failures {
			s.cfg.Log.Warn("cluster node failure", "graph", e.Name(),
				"node", f.Node, "addr", f.Addr, "chunk", f.Chunk,
				"retries", f.Retries, "err", f.Err)
		}
		attrs = append(attrs, "triangles", res.Triangles, "wall", res.TotalTime,
			"nodes", len(res.Nodes), "failures", len(res.Failures))
	}
	s.cfg.Log.Info("run finished", attrs...)
}

// decodeBody decodes r's JSON body, at most limit bytes, into v; what names
// the body in the 400 a malformed one gets.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		return badf("service: bad %s body: %w", what, err)
	}
	return nil
}

// parseOptions builds a run's Options from the server defaults plus the
// request's query parameters.
func (s *Server) parseOptions(q url.Values) (pdtl.Options, error) {
	opt := s.cfg.Defaults
	err := applyRunParams(q, &opt.Workers, &opt.MemEdges, &opt.StoreFormat)
	return opt, err
}

// parseClusterOptions is parseOptions for distributed runs, plus the
// schedule (?sched=, ?chunks=), which only a cluster has to decide.
func (s *Server) parseClusterOptions(q url.Values) (pdtl.ClusterOptions, error) {
	opt := s.cfg.ClusterDefaults
	err := applyRunParams(q, &opt.Workers, &opt.MemEdges, &opt.StoreFormat)
	if err != nil {
		return opt, err
	}
	if opt.Chunks, err = intParam(q, "chunks", opt.Chunks, 1024); err != nil {
		return opt, err
	}
	if v := q.Get("sched"); v != "" {
		opt.Sched = v
	}
	// Listing over the wire is a batch concern; the service only counts.
	opt.List = false
	opt.ListPath = ""
	return opt, nil
}

// applyRunParams overlays the query knobs every run shape shares onto an
// options struct — Options and ClusterOptions spell these fields
// identically, so both parsers defer here and cannot drift. ?kernel=,
// ?scan= and ?naive= name no option: there is one cone routine, one layout
// and one load balancer, and a name other than their own ("auto"), or a
// truthy ?naive=, is refused before anything runs or is cached.
func applyRunParams(q url.Values, workers, mem *int, store *string) error {
	var err error
	if *workers, err = intParam(q, "workers", *workers, 1024); err != nil {
		return err
	}
	if *mem, err = intParam(q, "mem", *mem, 1<<30); err != nil {
		return err
	}
	if err := scan.CheckLayout(q.Get("scan")); err != nil {
		return badRequest{err}
	}
	if err := mgt.CheckKernel(q.Get("kernel")); err != nil {
		return badRequest{err}
	}
	if boolParam(q, "naive") {
		return badf("service: ?naive= was removed: ranges are always balanced by in-degree")
	}
	if v := q.Get("store"); v != "" {
		*store = v
	}
	return nil
}

func intParam(q url.Values, name string, def, max int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badf("service: bad %s %q: %w", name, v, err)
	}
	if n < 0 || n > max {
		return 0, badf("service: %s %d outside [0, %d]", name, n, max)
	}
	return n, nil
}

func boolParam(q url.Values, name string) bool {
	switch q.Get(name) {
	case "1", "true", "yes", "on":
		return true
	}
	return false
}

// enter admits one API request into the in-flight group, or returns
// ErrDraining. A request that entered must call s.wg.Done. The
// check-and-Add is one critical section against Shutdown setting draining,
// so Shutdown's wg.Wait covers every request that got in.
func (s *Server) enter() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	s.wg.Add(1)
	return nil
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// graphStatus renders one registry entry for the JSON API.
func graphStatus(e *Entry) map[string]any {
	g := e.Graph()
	return map[string]any{
		"name":           e.Name(),
		"base":           e.Base(),
		"gen":            e.Gen(),
		"engine_runs":    g.Runs(),
		"cached_results": e.CachedResults(),
		"oriented_base":  g.OrientedBase(),
		"info":           g.Info(),
	}
}

// statusFor maps service and engine errors onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.As(err, new(badRequest)):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrBusy), errors.Is(err, ErrDraining), errors.Is(err, ErrRegistryClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit only.
		return 499
	case errors.Is(err, pdtl.ErrClosed):
		// Evicted or replaced between lookup and run.
		return http.StatusGone
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
