package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric families render in registration order (stable across scrapes,
// no per-scrape map building or sorting), each with its # HELP / # TYPE
// header in Prometheus text exposition format.

// Registry is a dependency-free Prometheus metric registry: counters,
// gauges, function-backed samples, labeled counter families, and
// fixed-bucket histograms, rendered in text exposition format by
// WriteText.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

type family struct {
	name string
	help string
	kind string // "counter", "gauge", "histogram"

	mu      sync.Mutex
	samples []*sample
	byLabel map[string]*sample
}

// sample is one series of a family: exactly one of the value sources is
// set.
type sample struct {
	labels string // rendered `{k="v",...}` or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

func (r *Registry) family(name, help, kind string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.fams {
		if f.name == name {
			if f.kind != kind {
				panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
			}
			return f
		}
	}
	f := &family{name: name, help: help, kind: kind, byLabel: make(map[string]*sample)}
	r.fams = append(r.fams, f)
	return f
}

func (f *family) add(labels string, s *sample) {
	s.labels = labels
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.byLabel[labels]; ok {
		// Idempotent re-registration hands back the existing series.
		*s = *old
		return
	}
	f.byLabel[labels] = s
	f.samples = append(f.samples, s)
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Counter registers (or returns) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter")
	s := &sample{c: &Counter{}}
	f.add("", s)
	return s.c
}

// Gauge registers (or returns) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge")
	s := &sample{g: &Gauge{}}
	f.add("", s)
	return s.g
}

// CounterFunc registers a counter whose value is computed at scrape time
// — the bridge for pre-existing atomic counters that keep their
// increment sites.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, "counter").add("", &sample{fn: fn})
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, "gauge").add("", &sample{fn: fn})
}

// ConstGauge registers a fixed-value labeled gauge — the
// `pdtl_build_info{...} 1` idiom. labels is a rendered label list
// without braces, e.g. `go_version="go1.24"`.
func (r *Registry) ConstGauge(name, help, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	val := v
	r.family(name, help, "gauge").add(labels, &sample{fn: func() float64 { return val }})
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct {
	f     *family
	label string

	mu   sync.Mutex
	kids map[string]*Counter
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter"), label: label, kids: make(map[string]*Counter)}
}

// With returns the child counter for the given label value, creating it
// on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.kids[value]; ok {
		return c
	}
	s := &sample{c: &Counter{}}
	v.f.add(fmt.Sprintf("{%s=\"%s\"}", v.label, escapeLabel(value)), s)
	v.kids[value] = s.c
	return s.c
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// DefDurationBuckets are the histogram bounds for latency metrics, in
// seconds (the Prometheus client default buckets).
var DefDurationBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Histogram is a fixed-bucket histogram: cumulative-on-render bucket
// counts, an exact float64 sum, observed with two atomic adds and a CAS
// loop. All methods are nil-receiver safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
}

// Histogram registers a histogram with the given bucket upper bounds
// (must be sorted ascending; nil selects DefDurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefDurationBuckets
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not sorted", name))
	}
	f := r.family(name, help, "histogram")
	s := &sample{h: &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}}
	f.add("", s)
	return s.h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound ≥ v: le-semantics puts v in that bucket (inclusive).
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports total observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns per-bucket counts (non-cumulative) read once, so a
// render is internally coherent: the +Inf cumulative count equals the
// rendered _count by construction.
func (h *Histogram) snapshot() []uint64 {
	counts := make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// WriteText renders the registry in Prometheus text exposition format:
// families in registration order, each prefixed with # HELP and # TYPE.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.fams))
	copy(fams, r.fams)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		samples := make([]*sample, len(f.samples))
		copy(samples, f.samples)
		f.mu.Unlock()
		// A labeled family with no series yet is omitted entirely —
		// metadata with zero samples is what the standard client emits for
		// nothing, and strict scrapers flag it.
		if len(samples) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return err
		}
		for _, s := range samples {
			if err := writeSample(w, f.name, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, name string, s *sample) error {
	switch {
	case s.c != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.c.Value())
		return err
	case s.g != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.g.Value())
		return err
	case s.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.fn()))
		return err
	case s.h != nil:
		counts := s.h.snapshot()
		var cum uint64
		for i, b := range s.h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(s.h.Sum()), name, cum); err != nil {
			return err
		}
		return nil
	}
	return nil
}

// formatFloat renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
