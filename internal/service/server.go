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
	"pdtl/internal/obs"
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
	// knobs per query parameter (workers, mem, scan, kernel, ...).
	Defaults pdtl.Options
	// ClusterAddrs, when non-empty, are the PDTL worker nodes
	// `?distributed=1` counts run against (via Graph.CountDistributed).
	ClusterAddrs []string
	// ClusterDefaults seeds distributed runs the same way Defaults seeds
	// local ones.
	ClusterDefaults pdtl.ClusterOptions
	// Live registers every graph as a mutable delta overlay (pdtl.OpenLive),
	// enabling POST …/edges and …/compact. Individual registrations can
	// also opt in with {"live": true}.
	Live bool
	// LiveDefaults parameterizes live registrations (compaction triggers,
	// snapshot format, estimator reservoir).
	LiveDefaults pdtl.LiveOptions
	// Log receives structured operational events: run start/finish (with
	// the memoization key as the run id and the phase breakdown), cluster
	// node failures, and compactions. Nil discards them.
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
	// graph, under the live rule each serves.
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/graphs", s.api(s.handleRegister))
	s.mux.HandleFunc("GET /v1/graphs", s.api(s.handleList))
	s.mux.HandleFunc("GET /v1/graphs/{name}", s.api(s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/graphs/{name}", s.api(s.handleEvict))
	s.mux.HandleFunc("GET /v1/graphs/{name}/count", s.graph(anyGraph, s.handleCount))
	s.mux.HandleFunc("GET /v1/graphs/{name}/triangles", s.graph(staticOnly("triangle listing is"), s.handleTriangles))
	s.mux.HandleFunc("GET /v1/graphs/{name}/degrees", s.graph(staticOnly("triangle degrees are"), s.handleDegrees))
	s.mux.HandleFunc("POST /v1/graphs/{name}/estimate", s.graph(anyGraph, s.handleEstimate))
	s.mux.HandleFunc("POST /v1/graphs/{name}/edges", s.graph(liveOnly, s.handleMutate))
	s.mux.HandleFunc("POST /v1/graphs/{name}/compact", s.graph(liveOnly, s.handleCompact))
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
// flags. With Config.Live set the graph is registered as a mutable
// overlay.
func (s *Server) RegisterGraph(name, base string) error {
	_, err := s.registerEntry(name, base, s.cfg.Live)
	return err
}

func (s *Server) registerEntry(name, base string, live bool) (*Entry, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	var (
		e   *Entry
		err error
	)
	if live {
		e, err = s.reg.RegisterLive(s.baseCtx, name, base, s.cfg.LiveDefaults)
	} else {
		e, err = s.reg.Register(name, base)
	}
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
	// Live-overlay gauges, sampled across the registry at scrape time: how
	// many graphs are mutable, how much uncompacted delta they carry, and
	// how many compactions have folded delta back into snapshots.
	r.GaugeFunc("pdtl_live_graphs", "Graphs registered as mutable live overlays.",
		func() float64 { g, _, _ := s.liveGauges(); return float64(g) })
	r.GaugeFunc("pdtl_live_delta_edges", "Uncompacted delta edge updates across live graphs.",
		func() float64 { _, d, _ := s.liveGauges(); return float64(d) })
	r.GaugeFunc("pdtl_live_compactions", "Compactions folded into snapshots across live graphs.",
		func() float64 { _, _, c := s.liveGauges(); return float64(c) })
	r.ConstGauge("pdtl_build_info", "Build metadata; the value is always 1.",
		buildInfoLabels(), 1)
	s.graphRuns = r.CounterVec("pdtl_graph_runs_total",
		"Engine runs executed, by graph.", "graph")
	s.graphHits = r.CounterVec("pdtl_graph_cache_hits_total",
		"Result-cache hits, by graph.", "graph")
	s.obsReg = r
}

// liveGauges samples the live-overlay registry state for the scrape-time
// gauge closures.
func (s *Server) liveGauges() (graphs, deltaEdges, compactions int64) {
	for _, e := range s.reg.Snapshot() {
		lg := e.Live()
		if lg == nil {
			continue
		}
		st := lg.Stats()
		graphs++
		deltaEdges += int64(st.DeltaEdges)
		compactions += int64(st.Compactions)
	}
	return graphs, deltaEdges, compactions
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
	// Live registers the graph as a mutable delta overlay (implied when the
	// server itself runs with -live).
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
	if req.Base == "" {
		return badf("service: register needs a store base path")
	}
	e, err := s.registerEntry(req.Name, req.Base, req.Live || s.cfg.Live)
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
	// Live marks counts served off a mutable overlay; MutGen is the number
	// of mutation batches the counted view holds (callers can correlate it
	// with their own POST …/edges responses).
	Live   bool   `json:"live,omitempty"`
	MutGen uint64 `json:"mut_gen,omitempty"`
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
	key, err := opt.Key()
	if err != nil {
		return badRequest{err}
	}
	m, err := s.memo(ctx, e, "count", key, boolParam(q, "trace"),
		func(runCtx context.Context) (any, error) {
			if lg := e.Live(); lg != nil {
				// Exact count over the current merged view; the memoized
				// result stays valid until the next mutation batch
				// invalidates the entry.
				return lg.Count(runCtx, opt)
			}
			return e.Graph().Count(runCtx, opt)
		})
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
		Live:            e.Live() != nil,
		MutGen:          res.Batches,
		Trace:           m.trace,
	})
	return nil
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
	if err := staticOnly("distributed counts are")(e); err != nil {
		return err
	}
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
	return s.withSlot(ctx, func() error {
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
	})
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
	key, err := opt.Key()
	if err != nil {
		return badRequest{err}
	}
	m, err := s.memo(ctx, e, "degrees", key, false,
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
	// Method is "doulion" (edge sparsification; default) or "wedges"
	// (uniform wedge sampling).
	Method string `json:"method"`
	// P is Doulion's edge survival probability in (0, 1]; default 0.1.
	P float64 `json:"p"`
	// Samples is the wedge-sampling budget; default 100000.
	Samples int `json:"samples"`
	// Seed makes the estimate reproducible (and memoizable); default 1.
	Seed int64 `json:"seed"`
}

func (s *Server) handleEstimate(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	lg := e.Live()
	var req estimateRequest
	if lg == nil {
		req = estimateRequest{Method: "doulion", P: 0.1, Samples: 100000, Seed: 1}
	}
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, 1<<20, "estimate", &req); err != nil {
			return err
		}
	}
	if lg != nil {
		// Live graphs maintain a streaming estimate (TRIÈST-FD) updated on
		// every mutation batch — it is already current, costs nothing to
		// read, and the batch estimators below would read the stale base
		// store instead of the merged view.
		if req.Method != "" && req.Method != "streaming" {
			return badf("service: live graphs only support the streaming estimate (got method %q)", req.Method)
		}
		// One snapshot, so the estimate and the batches it has seen agree.
		st := lg.Stats()
		writeJSON(w, http.StatusOK, map[string]any{
			"graph":         e.Name(),
			"origin":        "live",
			"method":        "streaming",
			"estimate":      st.Estimate,
			"exact":         st.EstimateExact,
			"sampled_edges": st.SampledEdges,
			"mut_gen":       st.Batches,
		})
		return nil
	}
	// Estimates are deterministic given the method's own parameters and the
	// seed, so they memoize and single-flight exactly like exact counts; the
	// key leaves out the other method's parameter.
	var key string
	switch req.Method {
	case "", "doulion":
		req.Method = "doulion"
		if req.P <= 0 || req.P > 1 {
			return badf("service: doulion p %v outside (0, 1]", req.P)
		}
		key = fmt.Sprintf("doulion p%v s%d", req.P, req.Seed)
	case "wedges":
		if req.Samples < 1 {
			return badf("service: wedge samples %d < 1", req.Samples)
		}
		key = fmt.Sprintf("wedges n%d s%d", req.Samples, req.Seed)
	default:
		return badf("service: unknown estimate method %q", req.Method)
	}
	m, err := s.memo(ctx, e, "estimate", key, false,
		func(runCtx context.Context) (any, error) {
			if err := runCtx.Err(); err != nil {
				return nil, err
			}
			if req.Method == "wedges" {
				return e.Graph().EstimateWedges(req.Samples, req.Seed)
			}
			return e.Graph().EstimateDoulion(req.P, req.Seed)
		})
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":    e.Name(),
		"origin":   m.origin,
		"method":   req.Method,
		"estimate": m.val.(float64),
	})
	return nil
}

// mutateRequest is the POST /v1/graphs/{name}/edges body — the same shape
// pdtl-gen stream emits, one batch per trace line. Inserts are applied
// before deletes within a batch.
type mutateRequest struct {
	Insert [][2]uint32 `json:"insert"`
	Delete [][2]uint32 `json:"delete"`
}

func (s *Server) handleMutate(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	var req mutateRequest
	if err := decodeBody(w, r, 64<<20, "edges", &req); err != nil {
		return err
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		return badf("service: empty mutation batch")
	}
	updates := make([]pdtl.LiveUpdate, 0, len(req.Insert)+len(req.Delete))
	for _, p := range req.Insert {
		updates = append(updates, pdtl.LiveUpdate{U: p[0], V: p[1]})
	}
	for _, p := range req.Delete {
		updates = append(updates, pdtl.LiveUpdate{U: p[0], V: p[1], Del: true})
	}
	lg := e.Live()
	// Mutations are admission-controlled like engine runs: a batch rebuilds
	// delta layers, feeds the estimator, and may kick off a compaction —
	// enough work that unbounded concurrent batches could starve queries.
	err := s.withSlot(ctx, func() error {
		if err := lg.Apply(updates); err != nil {
			// Apply only fails on invalid updates (self-loop, duplicate
			// insert, absent delete), and rejects the batch atomically.
			return badRequest{err}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The applied batch changed the answer to every memoized query; drop
	// them all and bump the generation so in-flight runs do not re-cache
	// stale results.
	e.Invalidate()
	s.met.MutationBatches.Add(1)
	s.met.EdgesApplied.Add(uint64(len(updates)))
	s.met.MutationBatchEdges.Observe(float64(len(updates)))
	st := lg.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"graph":    e.Name(),
		"inserted": len(req.Insert),
		"deleted":  len(req.Delete),
		"mut_gen":  st.Batches,
		"stats":    liveStatsJSON(st),
	})
	return nil
}

func (s *Server) handleCompact(ctx context.Context, w http.ResponseWriter, r *http.Request, e *Entry) error {
	lg := e.Live()
	// Compaction rebuilds the store through the external-sort pipeline — a
	// full engine-run's worth of work, so it takes an admission slot.
	var start time.Time
	err := s.withSlot(ctx, func() error {
		start = time.Now()
		return lg.Compact(ctx)
	})
	if err != nil {
		return err
	}
	s.met.CompactionDuration.ObserveDuration(time.Since(start))
	s.cfg.Log.Info("compaction finished", "graph", e.Name(),
		"wall", time.Since(start), "gen", lg.Stats().Gen)
	// Compaction preserves the graph, so memoized results stay valid.
	writeJSON(w, http.StatusOK, map[string]any{
		"graph": e.Name(),
		"stats": liveStatsJSON(lg.Stats()),
	})
	return nil
}

// liveStatsJSON shapes pdtl.LiveStats for the JSON API.
func liveStatsJSON(st pdtl.LiveStats) map[string]any {
	return map[string]any{
		"gen":            st.Gen,
		"num_vertices":   st.NumVertices,
		"num_edges":      st.NumEdges,
		"active_edges":   st.ActiveEdges,
		"frozen_edges":   st.FrozenEdges,
		"delta_edges":    st.DeltaEdges,
		"batches":        st.Batches,
		"edges_applied":  st.EdgesApplied,
		"compactions":    st.Compactions,
		"compacting":     st.Compacting,
		"estimate":       st.Estimate,
		"estimate_exact": st.EstimateExact,
		"sampled_edges":  st.SampledEdges,
	}
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

// graph wraps a graph-scoped route: on top of api it looks the graph up,
// refuses the graphs rule does not serve, and derives the request's run
// context (requestCtx) for h.
func (s *Server) graph(rule liveRule, h graphHandler) http.HandlerFunc {
	return s.api(func(w http.ResponseWriter, r *http.Request) error {
		e, err := s.reg.Get(r.PathValue("name"))
		if err != nil {
			return err
		}
		if err := rule(e); err != nil {
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

// A liveRule refuses, with a 400, the graphs a route does not serve.
type liveRule func(*Entry) error

// anyGraph serves static and live graphs alike.
func anyGraph(*Entry) error { return nil }

// liveOnly serves live graphs only: the mutation routes.
func liveOnly(e *Entry) error {
	if e.Live() == nil {
		return badf("service: graph %q is not live (register it with \"live\": true or run the server with -live)", e.Name())
	}
	return nil
}

// staticOnly serves static graphs only; what names the feature a live
// graph lacks ("triangle listing is").
func staticOnly(what string) liveRule {
	return func(e *Entry) error {
		if e.Live() != nil {
			return badf("service: %s not supported on live graphs (compact first)", what)
		}
		return nil
	}
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
	case float64:
		attrs = append(attrs, "estimate", res)
	}
	s.cfg.Log.Info("run finished", attrs...)
}

// withSlot runs fn holding an admission slot: the work that is never
// memoized (streams, mutation batches, compactions) queues for the same
// slots engine runs do.
func (s *Server) withSlot(ctx context.Context, fn func() error) error {
	release, err := acquireTimed(ctx, s.adm, s.met)
	if err != nil {
		return err
	}
	defer release()
	return fn()
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
	err := applyRunParams(q, &opt.Workers, &opt.MemEdges, &opt.ScanSource, &opt.Kernel, &opt.StoreFormat, &opt.NaiveBalance)
	return opt, err
}

// parseClusterOptions is parseOptions for distributed runs, plus the
// schedule (?sched=, ?chunks=), which only a cluster has to decide.
func (s *Server) parseClusterOptions(q url.Values) (pdtl.ClusterOptions, error) {
	opt := s.cfg.ClusterDefaults
	err := applyRunParams(q, &opt.Workers, &opt.MemEdges, &opt.ScanSource, &opt.Kernel, &opt.StoreFormat, &opt.NaiveBalance)
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
// identically, so both parsers defer here and cannot drift.
func applyRunParams(q url.Values, workers, mem *int, scanSource, kernel, store *string, naive *bool) error {
	var err error
	if *workers, err = intParam(q, "workers", *workers, 1024); err != nil {
		return err
	}
	if *mem, err = intParam(q, "mem", *mem, 1<<30); err != nil {
		return err
	}
	if v := q.Get("scan"); v != "" {
		*scanSource = v
	}
	if v := q.Get("kernel"); v != "" {
		*kernel = v
	}
	if v := q.Get("store"); v != "" {
		*store = v
	}
	if q.Has("naive") {
		*naive = boolParam(q, "naive")
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
	st := map[string]any{
		"name":           e.Name(),
		"base":           e.Base(),
		"gen":            e.Gen(),
		"engine_runs":    g.Runs(),
		"cached_results": e.CachedResults(),
		"oriented_base":  g.OrientedBase(),
		"info":           g.Info(),
	}
	if lg := e.Live(); lg != nil {
		ls := lg.Stats()
		st["live"] = true
		st["mut_gen"] = ls.Batches
		st["live_stats"] = liveStatsJSON(ls)
	}
	return st
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
