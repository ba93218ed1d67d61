package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// runConfig is everything one measure phase needs.
type runConfig struct {
	Workload workloadSpec
	Seed     int64
	Seconds  float64 // how long the timed reps run
	Trace    bool    // traced run: per-layer metrics instead of end-to-end
	Dir      string  // scratch directory of this run
	BinDir   string  // holds pdtl-worker and pdtl-serve
	OutDir   string  // where the traced run writes trace-<workload>.json
	P        int     // workers and GOMAXPROCS
	Setups   int     // how many times set-up is repeated (median reported)
	MinReps  int     // timed reps on each set-up copy never fewer than this
}

// opResult is what one operation reports besides its wall time.
type opResult struct {
	// Attempted and Failed count the operations inside this one: 1 and 0/1
	// for an engine run, every request of the script for serve-mixed.
	Attempted, Failed int
	// IOBytes is the store volume the program says it read.
	IOBytes int64
	// check, when non-nil, verifies (and removes) bulky outputs after the
	// clock has stopped; it returns how many of Attempted it found wrong.
	check func() (failed int, err error)
}

// instance is one set-up copy of a workload: stores oriented, handles
// open, children running. op runs one operation (closed loop: the caller
// issues the next only after this one returns) and verifies its result;
// rec is nil (and parent -1) except on the traced rep, where parent is the
// rep's "op" span.
type instance interface {
	op(ctx context.Context, rec *recorder, parent int) (opResult, error)
	// pids lists the instance's child processes, for CPU and RSS accounting.
	pids() []int
	// layers adds the per-layer metrics after the traced op, from that
	// op's artefacts and from probes of the layers' public functions.
	layers(ctx context.Context, ms metricSet) error
	close()
}

// newInstance sets a workload up in dir from the generated inputs.
func newInstance(ctx context.Context, cfg *runConfig, man *manifest, dir string) (instance, error) {
	switch cfg.Workload.Name {
	case wCountInmem, wCountOOC, wListInmem, wColdBuild:
		return newLocal(ctx, cfg, man, dir)
	case wDistStatic, wDistSteal:
		return newDist(ctx, cfg, man, dir)
	case wServeMixed:
		return newServe(ctx, cfg, man, dir)
	}
	return nil, fmt.Errorf("no implementation for workload %q", cfg.Workload.Name)
}

// phaseResult is what the measure phase hands back to the driver.
type phaseResult struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Reps      int       `json:"reps"`
	Metrics   metricSet `json:"metrics"`
	// Notes are human-readable lines for the report (sample counts,
	// percentile actually used).
	Notes []string `json:"notes,omitempty"`
}

// timing is what the bench itself measures around one operation.
type timing struct {
	wall, cpu float64 // seconds
	rssMB     float64 // largest peak RSS among the processes during the op
}

// timedOp runs one operation and measures it. The untimed check runs after
// the clocks (and the traced rep's op span) have stopped.
func timedOp(ctx context.Context, inst instance, rec *recorder) (res opResult, t timing, err error) {
	// Every op starts from a collected heap, as testing.B runs do: garbage
	// left by the previous op (or set-up) would otherwise make peak_rss_mb
	// depend on where the collector happened to be.
	runtime.GC()
	pids := inst.pids()
	resetPeakRSS(pids)
	root := rec.begin("op", -1)
	cpu0 := cpuSeconds(pids)
	start := time.Now()
	res, err = inst.op(ctx, rec, root)
	t.wall = time.Since(start).Seconds()
	t.cpu = cpuSeconds(pids) - cpu0
	rec.end(root)
	t.rssMB = peakRSSMB(pids)
	if err == nil && res.check != nil {
		var bad int
		bad, err = res.check()
		res.Failed += bad
	}
	return res, t, err
}

// measure sets the workload up cfg.Setups times in fresh directories (each
// set-up ends with one verified warm-up operation; the median is setup_s).
// An untraced run times operations on every one of those copies, each for
// its share of cfg.Seconds (end-to-end metrics); a traced run sets up once
// and runs the traced rep and the layer probes (per-layer metrics).
func measure(ctx context.Context, cfg *runConfig, man *manifest) (*phaseResult, error) {
	out := &phaseResult{Metrics: metricSet{}}
	var inst instance
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	var setups, walls, cpus, ios, rss []float64
	for k := 0; k < cfg.Setups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
			if err := os.RemoveAll(filepath.Join(cfg.Dir, fmt.Sprintf("setup%d", k-1))); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if inst, err = newInstance(ctx, cfg, man, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res, _, err := timedOp(ctx, inst, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		if cfg.Trace {
			continue
		}

		// The timed reps are spread over the set-up copies rather than all
		// run on the last one: the box's memory system slows and recovers in
		// phases of several seconds (other tenants), and a copy can land in a
		// slow or a fast state for its whole life (list-inmem: every rep of
		// one copy 0.22 s, of the next 0.26 s). Sampling the whole run and
		// every copy is what keeps the fastest rep steady from run to run.
		begin, reps := time.Now(), 0
		for reps < cfg.MinReps || time.Since(begin).Seconds() < cfg.Seconds/float64(cfg.Setups) {
			res, t, err := timedOp(ctx, inst, nil)
			if err != nil {
				return nil, fmt.Errorf("rep %d: %w", len(walls), err)
			}
			reps++
			out.Attempted += res.Attempted
			out.Failed += res.Failed
			walls = append(walls, t.wall)
			cpus = append(cpus, t.cpu)
			rss = append(rss, t.rssMB)
			ios = append(ios, float64(res.IOBytes)/1e6)
		}
	}

	if cfg.Trace {
		return out, traced(ctx, cfg, man, inst, out)
	}

	out.Reps = len(walls)
	// The fastest rep, not the median: on a shared box other tenants slow
	// every program by 10–20 % for seconds to minutes at a time, which moves
	// the median of a whole run but leaves its fastest rep nearly alone.
	// Contention only ever adds time, so the minimum is also the better
	// estimate of what the program's own work costs.
	out.Metrics["wall_s"] = slices.Min(walls)
	out.Metrics["cpu_s"] = slices.Min(cpus)
	out.Metrics["io_read_mb"] = median(ios)
	out.Metrics["setup_s"] = median(setups)
	// Peak RSS is restarted before every op, so each rep yields the peak of
	// one operation. With a collected runtime those peaks are bimodal (where
	// the collector happens to be makes a cold-build op peak at 76 or at
	// 92 MB, a pdtl-serve script at 57 or at 71 MB), and which mode is the
	// commoner differs by workload, so every order statistic — median,
	// second largest, maximum — flips between the modes from run to run on
	// one workload or another (quartile spread over ten runs up to 28 %). The
	// mean of the per-op peaks moves with the share of reps in each mode
	// instead of jumping (≤ 6 % on every workload).
	out.Metrics["peak_rss_mb"] = mean(rss)
	out.Notes = append(out.Notes,
		fmt.Sprintf("wall_s, cpu_s: fastest of %d timed reps over %d set-up copies (wall median %.4f, max %.4f; cpu median %.4f); io_read_mb: median; peak_rss_mb: mean of the reps' peaks (median %.1f, max %.1f)",
			len(walls), len(setups), median(walls), slices.Max(walls), median(cpus), median(rss), slices.Max(rss)),
		fmt.Sprintf("setup_s: median of %d set-ups (min %.4f, max %.4f)", len(setups), slices.Min(setups), slices.Max(setups)))
	if sn, ok := inst.(interface{ sampleNotes() []string }); ok {
		out.Notes = append(out.Notes, sn.sampleNotes()...)
	}
	return out, nil
}

// tracedUntracedReps is how many untraced reps the traced run times first,
// as the base of obs.trace_overhead_frac.
const tracedUntracedReps = 3

// traced runs the traced rep: a few untraced reps for the overhead base,
// then one operation with the bench's span recorder around every call into
// a layer and the program's own tracer attached, then the layer probes.
func traced(ctx context.Context, cfg *runConfig, man *manifest, inst instance, out *phaseResult) error {
	var base []float64
	for i := 0; i < tracedUntracedReps; i++ {
		res, t, err := timedOp(ctx, inst, nil)
		if err != nil {
			return fmt.Errorf("untraced rep: %w", err)
		}
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		base = append(base, t.wall)
	}
	rec := &recorder{}
	res, t, err := timedOp(ctx, inst, rec)
	if err != nil {
		return fmt.Errorf("traced rep: %w", err)
	}
	wall := t.wall
	out.Attempted += res.Attempted
	out.Failed += res.Failed
	out.Reps = 1

	ms := out.Metrics
	ms["gen.build_s"] = man.GenSeconds
	ms["obs.trace_overhead_frac"] = wall/median(base) - 1
	ms["obs.spans"] = float64(len(rec.spans))
	self := selfByName(rec.spans)
	for _, n := range spanNames {
		ms["obs.self_s."+n] = self[n]
	}
	// The op span's own self time is whatever the rep spent outside any
	// call into a layer: the share of the traced wall the spans do not
	// attribute.
	rootSelf := float64(selfTimes(rec.spans)[0]) / 1e9
	ms["obs.unattributed_frac"] = rootSelf / wall
	if err := inst.layers(ctx, ms); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.OutDir, "trace-"+cfg.Workload.Name+".json")
	if err := writeChrome(path, rec.spans); err != nil {
		return err
	}
	out.Notes = append(out.Notes,
		fmt.Sprintf("per-layer numbers from one traced rep (wall %.4fs vs untraced median %.4fs of %d); trace: %s",
			wall, median(base), len(base), path))
	return nil
}
