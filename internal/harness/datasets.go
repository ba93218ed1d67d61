package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"pdtl/internal/baseline"
	"pdtl/internal/gen"
	"pdtl/internal/graph"
	"pdtl/internal/mgt"
	"pdtl/internal/orient"
	"pdtl/internal/scan"
	"pdtl/internal/sched"
)

// Dataset is one entry of the Table I stand-in registry.
type Dataset struct {
	// Key is the dataset id used by experiments ("twitter-sim").
	Key string
	// Paper is the Table I dataset this stands in for.
	Paper string
	// Build generates the graph deterministically.
	Build func() (*graph.CSR, error)
}

// Datasets is the registry, in Table I order. Scales are chosen so the full
// experiment suite runs in minutes on a laptop while preserving each
// dataset's structural signature (skew ordering, density, hub sizes) — see
// DESIGN.md §3.
var Datasets = []Dataset{
	{
		Key: "lj-sim", Paper: "soc-LiveJournal1",
		Build: func() (*graph.CSR, error) {
			return gen.Community(1<<14, (1<<14)*9,
				gen.CommunityParams{Communities: 64, IntraProb: 0.55, Exponent: 2.6}, 101)
		},
	},
	{
		Key: "orkut-sim", Paper: "com-Orkut",
		Build: func() (*graph.CSR, error) {
			return gen.Community(1<<13, (1<<13)*38,
				gen.CommunityParams{Communities: 48, IntraProb: 0.5, Exponent: 2.5}, 102)
		},
	},
	{
		Key: "twitter-sim", Paper: "Twitter",
		Build: func() (*graph.CSR, error) {
			return gen.PowerLaw(1<<15, (1<<15)*29, 1.9, 103)
		},
	},
	{
		Key: "yahoo-sim", Paper: "Yahoo",
		Build: func() (*graph.CSR, error) {
			return gen.Web(1<<17, gen.DefaultWeb, 104)
		},
	},
	{
		Key: "rmat14", Paper: "RMAT-26",
		Build: func() (*graph.CSR, error) { return gen.RMAT(14, 16, 105) },
	},
	{
		Key: "rmat15", Paper: "RMAT-27",
		Build: func() (*graph.CSR, error) { return gen.RMAT(15, 16, 106) },
	},
	{
		Key: "rmat16", Paper: "RMAT-28",
		Build: func() (*graph.CSR, error) { return gen.RMAT(16, 16, 107) },
	},
	{
		Key: "rmat17", Paper: "RMAT-29",
		Build: func() (*graph.CSR, error) { return gen.RMAT(17, 16, 108) },
	},
	{
		// ooc-sim is not a Table I stand-in either: it has the shape of
		// the benchmark's out-of-core workload (sparse power law, short
		// lists, a scan of the store costing far more than the
		// intersections it feeds) for the lb-ooc ablation.
		Key: "ooc-sim", Paper: "(out-of-core)",
		Build: func() (*graph.CSR, error) { return gen.PowerLaw(1<<18, (1<<18)*8, 1.9, 110) },
	},
	{
		// tiny is not a Table I stand-in: it is the seconds-scale smoke
		// dataset CI ground-truths (`pdtl-bench -baseline`) and counts on
		// both store formats. Skewed on purpose so the worker imbalance is
		// non-trivial.
		Key: "tiny", Paper: "(smoke)",
		Build: func() (*graph.CSR, error) { return gen.PowerLaw(1<<10, (1<<10)*8, 2.0, 109) },
	},
}

// dataset looks a registry entry up by key.
func dataset(key string) (Dataset, error) {
	for _, d := range Datasets {
		if d.Key == key {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("harness: unknown dataset %q", key)
}

// Harness owns the dataset/orientation cache for one process (or a
// persistent cache directory when given one).
type Harness struct {
	cacheDir string

	// Scan, Kernel, Sched, and Chunks, when set, override the execution
	// layer for every experiment run through the harness (CalcLocal and
	// RunCluster) — the pdtl-bench -scan/-kernel/-sched/-chunks flags land
	// here, so any table or figure can be regenerated under a different
	// scan source, cone routine, or chunk scheduler. Zero values keep the
	// engine defaults.
	Scan   scan.SourceKind
	Kernel mgt.KernelKind
	Sched  sched.Mode
	Chunks int
	// StoreFormat selects the oriented-store encoding every experiment
	// runs against (the pdtl-bench -store flag); empty means
	// graph.FormatPlain. The orientation cache is keyed by format, so one
	// harness can compare both encodings of the same dataset.
	StoreFormat graph.Format
	// Ctx, when set, bounds every run the harness performs: cancelling it
	// aborts the in-flight experiment (pdtl-bench wires SIGINT/SIGTERM
	// here) and stops between experiments. Nil means context.Background().
	Ctx context.Context

	mu       sync.Mutex
	stores   map[string]string
	oriented map[string]orientEntry
}

type orientEntry struct {
	base string
	res  *orient.Result
}

// New creates a harness. cacheDir == "" creates a fresh temporary cache
// (generated datasets are rebuilt per process); a persistent directory
// reuses stores across runs.
func New(cacheDir string) (*Harness, error) {
	if cacheDir == "" {
		dir, err := os.MkdirTemp("", "pdtl-harness-")
		if err != nil {
			return nil, err
		}
		cacheDir = dir
	} else if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	return &Harness{
		cacheDir: cacheDir,
		stores:   make(map[string]string),
		oriented: make(map[string]orientEntry),
	}, nil
}

// CacheDir reports the harness's cache directory.
func (h *Harness) CacheDir() string { return h.cacheDir }

// Store materializes (or reuses) the undirected store for a dataset key and
// returns its base path.
func (h *Harness) Store(key string) (string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if base, ok := h.stores[key]; ok {
		return base, nil
	}
	ds, err := dataset(key)
	if err != nil {
		return "", err
	}
	base := filepath.Join(h.cacheDir, key)
	if _, err := graph.ReadMeta(base); err != nil {
		g, err := ds.Build()
		if err != nil {
			return "", fmt.Errorf("harness: build %s: %w", key, err)
		}
		if err := graph.WriteCSR(base, key, g); err != nil {
			return "", err
		}
	}
	h.stores[key] = base
	return base, nil
}

// Oriented returns the oriented store for a dataset key in the harness's
// configured StoreFormat, orienting once per (dataset, format) with the
// given parallelism and caching the result.
func (h *Harness) Oriented(key string, workers int) (string, *orient.Result, error) {
	base, err := h.Store(key)
	if err != nil {
		return "", nil, err
	}
	format, err := graph.ParseFormat(string(h.StoreFormat))
	if err != nil {
		return "", nil, err
	}
	cacheKey := key + "|" + string(format)
	h.mu.Lock()
	if e, ok := h.oriented[cacheKey]; ok {
		h.mu.Unlock()
		return e.base, e.res, nil
	}
	h.mu.Unlock()

	// Process-unique name: a persistent cache dir may be shared by
	// concurrent harness processes, and orientation rewrites its output
	// files — a shared name would let one process truncate a store
	// another is reading. The format lands in the name too, so both
	// encodings of a dataset can coexist in one cache directory.
	dst := fmt.Sprintf("%s.oriented.%s.%d", base, format, os.Getpid())
	res, err := orient.OrientFormat(base, dst, workers, format)
	if err != nil {
		return "", nil, err
	}
	h.mu.Lock()
	h.oriented[cacheKey] = orientEntry{base: dst, res: res}
	h.mu.Unlock()
	return dst, res, nil
}

// LoadCSR loads a dataset fully into memory (for the in-memory
// comparators).
func (h *Harness) LoadCSR(key string) (*graph.CSR, error) {
	base, err := h.Store(key)
	if err != nil {
		return nil, err
	}
	d, err := graph.Open(base)
	if err != nil {
		return nil, err
	}
	return d.LoadCSR()
}

// StoreBytes reports the size of a dataset's store files (Table I "Size").
func (h *Harness) StoreBytes(key string) (int64, error) {
	base, err := h.Store(key)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range []string{graph.DegPath(base), graph.AdjPath(base)} {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// BaselineCount computes a dataset's exact triangle count with the
// in-memory reference implementation (internal/baseline) — the independent
// ground truth CI smoke jobs compare engine and service replies against
// (`pdtl-bench -baseline`). key is a dataset key, or — when an undirected
// store exists at that path — a store base, so smoke jobs can ground-truth
// stores written by pdtl-gen (e.g. the -final snapshot of a churn trace).
func (h *Harness) BaselineCount(key string) (uint64, error) {
	g, err := h.loadKeyOrStore(key)
	if err != nil {
		return 0, err
	}
	return baseline.Forward(g), nil
}

func (h *Harness) loadKeyOrStore(key string) (*graph.CSR, error) {
	if _, err := os.Stat(graph.MetaPath(key)); err == nil {
		d, err := graph.Open(key)
		if err != nil {
			return nil, err
		}
		if d.Meta.Oriented {
			// The baseline counts over the undirected graph; an oriented
			// store would silently halve every adjacency.
			return nil, fmt.Errorf("harness: store %s is oriented, baseline needs the undirected graph", key)
		}
		return d.LoadCSR()
	}
	return h.LoadCSR(key)
}
