package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of one traced pass in memory. The benchmark
// records a span around each of its own calls into a layer boundary
// (core.Run, kvstore.Deploy, Deployment.Warm, kvstore.Run, ...); calls
// made once per operation are aggregated instead (see agg). A nil
// *tracer records nothing, so one code path serves timed and traced
// passes.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Arg    string `json:"arg,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name, arg string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Arg: arg, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// total is the summed duration of every span called name, in seconds.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// finish computes every span's self time: its duration minus the part
// of it that its children cover. Children of one span may overlap (the
// Fig. 5 replay runs cells in parallel), so coverage is the union of
// their intervals.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for i := range t.spans {
		s := &t.spans[i]
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return append([]span(nil), t.spans...)
}

// writeSummary prints count, total and self time per span name.
func writeSummary(w io.Writer, workload string, spans []span) {
	type sum struct {
		n           int
		total, self int64
	}
	by := map[string]*sum{}
	var names []string
	for _, s := range spans {
		x := by[s.Name]
		if x == nil {
			x = &sum{}
			by[s.Name] = x
			names = append(names, s.Name)
		}
		x.n++
		x.total += s.End - s.Start
		x.self += s.Self
	}
	for _, name := range names {
		x := by[name]
		fmt.Fprintf(w, "%s span %s n=%d total_s=%.6f self_s=%.6f\n",
			workload, name, x.n, float64(x.total)/1e9, float64(x.self)/1e9)
	}
}

// agg aggregates a call made once per operation: a span each would cost
// more than the call.
type agg struct{ n, ns atomic.Int64 }

func (a *agg) since(t0 time.Time) {
	a.n.Add(1)
	a.ns.Add(int64(time.Since(t0)))
}

// perCall adds the mean duration of one call, in ns, unless there were
// no calls.
func (a *agg) perCall(s samples, name string) {
	s.ratio(name, float64(a.ns.Load()), float64(a.n.Load()))
}

func (a *agg) seconds() float64 { return float64(a.ns.Load()) / 1e9 }
