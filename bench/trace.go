package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"pdtl/internal/obs"
)

// span is one recorded interval of the traced rep: a call the bench made
// into a layer's public function, or a span the program's own tracer
// exported, grafted under the bench span that caused it. Times are unix
// nanoseconds; Parent indexes the recorder's slice (-1 = root). A recorder
// holds exactly one operation — the traced rep — so its spans need no
// further identifier to be told apart from another operation's.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent int
	Lane   int // worker index + 1 (0 = coordinator), the Chrome tid
}

// recorder keeps the traced rep's spans in memory; they are written out
// once, when the bench ends. A nil recorder records nothing, so the timed
// (untraced) reps run the same code without it.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span under parent and returns its index (-1 on a nil
// recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Now().UnixNano(), Parent: parent})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// graft imports the program's spans (an obs.Trace read after the run that
// filled it) under the bench span parent, keeping their relative structure.
func (r *recorder) graft(parent int, tr *obs.Trace) {
	if r == nil || tr == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, sp := range tr.Spans() {
		p := parent
		if sp.Parent >= 0 {
			p = base + int(sp.Parent)
		}
		r.spans = append(r.spans, span{
			Name: sp.Name, Start: sp.Start, End: sp.Start + sp.Dur,
			Parent: p, Lane: int(sp.Worker) + 1,
		})
	}
}

// chromeTrace is the trace_event JSON object form, as obs.Trace.WriteJSON
// (and therefore pdtl-serve's ?trace=1 reply) emits it.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// chromeEvent is the part of one event the bench reads back.
type chromeEvent struct {
	Name string  `json:"name"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	Args struct {
		Parent int `json:"parent"` // index into traceEvents, -1 = root
	} `json:"args"`
}

// graftChrome imports a Chrome trace_event document (the service's
// ?trace=1 reply) under parent. Its timestamps are relative to its own
// earliest span, so they are anchored at anchor (unix ns), the moment the
// bench sent the request — good to within the request's network latency.
func (r *recorder) graftChrome(parent int, raw json.RawMessage, anchor int64) error {
	if r == nil || len(raw) == 0 {
		return nil
	}
	var doc chromeTrace
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("parse trace reply: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, ev := range doc.TraceEvents {
		p := parent
		if ev.Args.Parent >= 0 {
			p = base + ev.Args.Parent
		}
		start := anchor + int64(ev.Ts*1e3)
		r.spans = append(r.spans, span{
			Name: ev.Name, Start: start, End: start + int64(ev.Dur*1e3),
			Parent: p, Lane: ev.Tid,
		})
	}
	return nil
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other — two
// runners' chunk spans under one calc span — so coverage is the union of
// the child intervals clipped to the parent, not their sum).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(spans) {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		edge := sp.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > sp.End {
				hi = sp.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// selfByName rolls self times up by span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] += float64(ns) / 1e9
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or ui.perfetto.dev): one complete event per span,
// microseconds relative to the earliest span, tid = lane.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var min int64
	for i, sp := range spans {
		if i == 0 || sp.Start < min {
			min = sp.Start
		}
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, sp := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"span":%d,"parent":%d}}`,
			sp.Name, sp.Lane, float64(sp.Start-min)/1e3, float64(sp.End-sp.Start)/1e3, i, sp.Parent)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
