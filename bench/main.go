// Command bench is the repository's performance benchmark: seven workloads
// over the public pdtl API, a real pdtl-worker and a real pdtl-serve, each
// verified against internal/baseline, reporting end-to-end metrics from
// untraced timed reps and per-layer metrics from one separate traced rep.
// README.md documents the workloads, the metrics and how to run it;
// ../BENCHMARK.json is the contract it is run under.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloadTimeout bounds one workload's inputs + measure phases; a hung
// child is killed and the run fails instead of hanging.
const workloadTimeout = 170 * time.Second

// env is what every mode shares.
type env struct {
	root     string // repository checkout (holds BENCHMARK.json)
	buildDir string // build outputs and scratch space, inside the checkout
	outDir   string // traces
	scale    string
	p        int
}

func main() {
	var (
		workload   = flag.String("workload", "", "run one workload (default: all seven, untraced then traced)")
		seed       = flag.Int64("seed", 1, "input seed; generator k of a workload gets seed+k")
		seconds    = flag.Float64("seconds", 10, "how long the timed reps of a workload run")
		trace      = flag.Int("trace", 0, "with -workload: 0 = timed reps, end-to-end metrics; 1 = traced rep, per-layer metrics")
		scale      = flag.String("scale", "full", "input sizes: full or smoke")
		outDir     = flag.String("out", "", "directory for trace-<workload>.json (default bench/out)")
		selfcheck  = flag.Bool("selfcheck", false, "A/A stability check: run the full set twice, alternating order, and print STABILITY.md")
		updatePins = flag.Bool("update-pins", false, "regenerate the pinned seed's inputs and rewrite bench/pins.json")
		root       = flag.String("root", "", "repository checkout (default: nearest parent holding BENCHMARK.json)")
		buildDir   = flag.String("build", "", "build and scratch directory (default <root>/.bench_build)")
		phase      = flag.String("phase", "", "internal: run one phase of a workload in this process (inputs or measure)")
		dir        = flag.String("dir", "", "internal: the phase's scratch directory")
	)
	flag.Parse()

	e := &env{scale: *scale, p: min(2, runtime.NumCPU())}
	runtime.GOMAXPROCS(e.p)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	if e.root, err = findRoot(*root); err == nil {
		e.buildDir = *buildDir
		if e.buildDir == "" {
			e.buildDir = filepath.Join(e.root, ".bench_build")
		}
		e.outDir = *outDir
		if e.outDir == "" {
			e.outDir = filepath.Join(e.root, "bench", "out")
		}
		switch {
		case *phase != "":
			err = runPhase(ctx, e, *phase, *workload, *seed, *seconds, *trace == 1, *dir)
		case *updatePins:
			err = updatePinFile(e)
		case *selfcheck:
			err = runSelfcheck(ctx, e, *seed, *seconds)
		case *workload != "":
			err = runContract(ctx, e, *workload, *seed, *seconds, *trace == 1)
		default:
			err = runAll(ctx, e, *seed, *seconds)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

// findRoot returns the checkout: the given directory, or the nearest parent
// of the working directory that holds BENCHMARK.json.
func findRoot(given string) (string, error) {
	if given != "" {
		return filepath.Abs(given)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// runPhase is the body of a re-exec'd child: inputs writes manifest.json
// into dir, measure reads it and writes result.json. Each workload's
// measure phase runs in a process of its own so that peak_rss_mb is the
// program's memory, not the input generator's or the previous workload's.
func runPhase(ctx context.Context, e *env, phase, name string, seed int64, seconds float64, trace bool, dir string) error {
	w, err := findWorkload(e.scale, name)
	if err != nil {
		return err
	}
	switch phase {
	case "inputs":
		man, err := buildInputs(w, seed, dir)
		if err != nil {
			return err
		}
		if e.scale == "full" {
			if err := checkPins(man); err != nil {
				return err
			}
		}
		return writeJSONFile(filepath.Join(dir, "manifest.json"), man)
	case "measure":
		var man manifest
		if err := readJSONFile(filepath.Join(dir, "manifest.json"), &man); err != nil {
			return err
		}
		cfg := &runConfig{
			Workload: w, Seed: seed, Seconds: seconds, Trace: trace,
			Dir: filepath.Join(dir, "run"), BinDir: filepath.Join(e.buildDir, "bin"), OutDir: e.outDir,
			P: e.p, Setups: 3, MinReps: 2,
		}
		if trace {
			cfg.Setups = 1
		}
		res, err := measure(ctx, cfg, &man)
		if err != nil {
			return err
		}
		return writeJSONFile(filepath.Join(dir, resultFile(trace)), res)
	}
	return fmt.Errorf("unknown phase %q", phase)
}

func resultFile(trace bool) string {
	if trace {
		return "result-traced.json"
	}
	return "result.json"
}

// buildBinaries builds the real pdtl-worker and pdtl-serve the distributed
// and service workloads drive, from the checkout's own source.
func buildBinaries(ctx context.Context, e *env) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-C", e.root, "-o", filepath.Join(e.buildDir, "bin")+string(filepath.Separator),
		"./cmd/pdtl-worker", "./cmd/pdtl-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build pdtl-worker pdtl-serve: %w\n%s", err, out)
	}
	return nil
}

// session is one workload's generated inputs: phases run against it until
// it is closed.
type session struct {
	e    *env
	name string
	seed int64
	dir  string
}

// openSession makes the scratch directory and runs the inputs phase.
func openSession(ctx context.Context, e *env, name string, seed int64) (*session, error) {
	tmp := filepath.Join(e.buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, name+"-")
	if err != nil {
		return nil, err
	}
	s := &session{e: e, name: name, seed: seed, dir: dir}
	if err := s.phase(ctx, "inputs", 0, false); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() { os.RemoveAll(s.dir) }

// phase re-executes this binary for one phase and waits for it.
func (s *session) phase(ctx context.Context, phase string, seconds float64, trace bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	t := "0"
	if trace {
		t = "1"
	}
	c, err := startChild(s.e.p, true, self,
		"-phase", phase, "-workload", s.name, "-scale", s.e.scale,
		"-seed", fmt.Sprint(s.seed), "-seconds", fmt.Sprint(seconds), "-trace", t,
		"-dir", s.dir, "-root", s.e.root, "-build", s.e.buildDir, "-out", s.e.outDir)
	if err != nil {
		return err
	}
	if err := c.wait(ctx); err != nil {
		return fmt.Errorf("%s %s: %w", s.name, phase, err)
	}
	if warn := strings.TrimSpace(c.stderr.String()); warn != "" {
		fmt.Fprintln(os.Stderr, warn)
	}
	return nil
}

// measure runs the measure phase and returns its result.
func (s *session) measure(ctx context.Context, seconds float64, trace bool) (*phaseResult, error) {
	if err := s.phase(ctx, "measure", seconds, trace); err != nil {
		return nil, err
	}
	var res phaseResult
	if err := readJSONFile(filepath.Join(s.dir, resultFile(trace)), &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// contractLine is the one JSON object the contract wants as the last line
// of standard output.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContract is one driver run: one workload, one seed, either the timed
// reps (end-to-end metrics) or the traced rep (per-layer metrics).
func runContract(ctx context.Context, e *env, name string, seed int64, seconds float64, trace bool) error {
	if _, err := findWorkload(e.scale, name); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, workloadTimeout)
	defer cancel()
	if err := buildBinaries(ctx, e); err != nil {
		return err
	}
	printProvenance(e, seed, seconds)
	s, err := openSession(ctx, e, name, seed)
	if err != nil {
		return err
	}
	defer s.close()
	res, err := s.measure(ctx, seconds, trace)
	if err != nil {
		return err
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if err := printMetrics(name, defs, res); err != nil {
		return err
	}
	values, err := res.Metrics.complete(defs)
	if err != nil {
		return err
	}
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	for i, d := range defs {
		line.Metrics[d.Name] = contractValue{Value: values[i], Unit: d.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return verdict(name, res.Attempted, res.Failed)
}

// verdict is what the exit code hangs on: any operation that errored or
// returned a wrong count, listing or reply fails the run.
func verdict(name string, attempted, failed int) error {
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed verification", name, failed, attempted)
	}
	return nil
}

// workloadReport is one workload's row of the full report.
type workloadReport struct {
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	FailedFrac float64   `json:"failed_frac"`
	Reps       int       `json:"reps"`
	EndToEnd   metricSet `json:"end_to_end"`
	PerLayer   metricSet `json:"per_layer"`
}

// report is the summary a full run ends with. The benchmark defines the
// baseline and claims no gain, so Claim is always null.
type report struct {
	Schema     string                     `json:"schema"`
	Provenance map[string]string          `json:"provenance"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	Claim      *string                    `json:"claim"`
}

// runSet runs the given workloads in order — timed reps, then the traced
// rep on the same inputs — and returns their rows.
func runSet(ctx context.Context, e *env, names []string, seed int64, seconds float64, verbose bool) (map[string]*workloadReport, error) {
	rows := make(map[string]*workloadReport)
	for _, name := range names {
		row, err := func() (*workloadReport, error) {
			ctx, cancel := context.WithTimeout(ctx, 2*workloadTimeout)
			defer cancel()
			s, err := openSession(ctx, e, name, seed)
			if err != nil {
				return nil, err
			}
			defer s.close()
			timed, err := s.measure(ctx, seconds, false)
			if err != nil {
				return nil, err
			}
			tr, err := s.measure(ctx, seconds, true)
			if err != nil {
				return nil, err
			}
			if verbose {
				if err := printMetrics(name, endToEnd, timed); err != nil {
					return nil, err
				}
				if err := printMetrics(name, perLayer, tr); err != nil {
					return nil, err
				}
			}
			row := &workloadReport{
				Attempted: timed.Attempted + tr.Attempted, Failed: timed.Failed + tr.Failed,
				Reps: timed.Reps, EndToEnd: timed.Metrics, PerLayer: tr.Metrics,
			}
			row.FailedFrac = float64(row.Failed) / float64(row.Attempted)
			return row, nil
		}()
		if err != nil {
			return nil, err
		}
		rows[name] = row
	}
	return rows, nil
}

func workloadNames(scale string) ([]string, error) {
	all, err := workloads(scale)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names, nil
}

// runAll is the one command that prints every metric by name with its unit,
// verifies every result and exits non-zero on any wrong one.
func runAll(ctx context.Context, e *env, seed int64, seconds float64) error {
	names, err := workloadNames(e.scale)
	if err != nil {
		return err
	}
	if err := buildBinaries(ctx, e); err != nil {
		return err
	}
	prov := printProvenance(e, seed, seconds)
	rows, err := runSet(ctx, e, names, seed, seconds, true)
	if err != nil {
		return err
	}
	out, err := json.Marshal(report{Schema: "pdtl-bench/1", Provenance: prov, Workloads: rows})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	for _, name := range names {
		if err := verdict(name, rows[name].Attempted, rows[name].Failed); err != nil {
			return err
		}
	}
	return nil
}

// printProvenance prints (and returns) what a reader needs to place the
// numbers: commit, toolchain, machine, parallelism, seed, run length, sizes.
func printProvenance(e *env, seed int64, seconds float64) map[string]string {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	prov := map[string]string{
		"commit": commit, "go": runtime.Version(), "nproc": fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(e.p), "seed": fmt.Sprint(seed), "seconds": fmt.Sprint(seconds),
		"scale": e.scale, "reps": "timed reps for -seconds spread over 3 set-up copies, at least 2 on each; 1 traced rep after 3 untraced",
	}
	fmt.Printf("# pdtl bench — commit %s, %s, nproc %s, GOMAXPROCS %d, seed %d, %gs of timed reps (min 6), scale %s\n",
		commit, prov["go"], prov["nproc"], e.p, seed, seconds, e.scale)
	if all, err := workloads(e.scale); err == nil {
		for _, w := range all {
			var sizes []string
			for _, g := range w.Graphs {
				sizes = append(sizes, g.String())
			}
			prov["size."+w.Name] = strings.Join(sizes, "; ")
			fmt.Printf("#   %-12s %s\n", w.Name, prov["size."+w.Name])
		}
	}
	return prov
}

// printMetrics prints one result as a table: every declared metric by name,
// value and unit, then the sample-count notes.
func printMetrics(name string, defs []metricDef, res *phaseResult) error {
	values, err := res.Metrics.complete(defs)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("\n## %s — %d operations attempted, %d failed\n", name, res.Attempted, res.Failed)
	for i, d := range defs {
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %g%%)", d.Better, d.Bound*100)
		}
		fmt.Printf("%-32s %16.6g %-7s%s\n", d.Name, values[i], d.Unit, note)
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
	return nil
}
