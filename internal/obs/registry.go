// Package obs is cxlsim's unified observability layer: a metrics
// registry (counters, gauges, histograms, with labeled families), a
// virtual-time event tracer that exports Chrome trace-event JSON
// (viewable in Perfetto / chrome://tracing), and exposition helpers
// (Prometheus text format, JSON snapshots, HTTP handlers).
//
// Everything is keyed to *virtual* time (sim.Time): no wall-clock value
// ever enters a metric or trace, so two runs of the same seed produce
// bit-identical output — the same determinism contract the sim kernel
// guarantees.
//
// Hot-path cost: counters and gauges are single atomic operations;
// histograms take one short mutex. A nil *Tracer is a no-op, so
// instrumented code needs no "tracing enabled?" branches.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cxlsim/internal/stats"
)

// Kind discriminates metric families.
type Kind string

// The metric kinds, named as Prometheus spells them.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct {
	bits atomic.Uint64                  // float64 bits
	fn   atomic.Pointer[func() float64] // set by CounterFunc: Value reads it
	// disc, when non-nil, counts discarded (negative or NaN) deltas into
	// the owning registry's obs_counter_negative_deltas_total self-metric,
	// so silent data loss is visible in every exposition.
	disc *atomic.Uint64
}

// Add increases the counter by v (v must be non-negative; negative
// deltas are ignored to preserve monotonicity and counted in the
// registry's obs_counter_negative_deltas_total self-metric).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		if c.disc != nil {
			c.disc.Add(1)
		}
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count: the registered function's result for a
// CounterFunc, else the sum of every Add.
func (c *Counter) Value() float64 {
	if fn := c.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
	fn   atomic.Pointer[func() float64] // set by GaugeFunc: Value reads it
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value reads the current value: the registered function's result for a
// GaugeFunc, else the last Set (plus any Adds).
func (g *Gauge) Value() float64 {
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Exemplar links one tail observation back to the trace span that
// produced it, so a p99 bucket in an exposition is one hop away from the
// Perfetto span to blame.
type Exemplar struct {
	Value  float64 `json:"value"`             // the observed value
	AtNs   float64 `json:"at_ns"`             // virtual time of the observation
	SpanID uint64  `json:"span_id,omitempty"` // Tracer.SpanWithID sequence number
	Track  string  `json:"track,omitempty"`   // trace track holding the span
	Span   string  `json:"span,omitempty"`    // span name
}

// Histogram wraps a stats.Histogram with a mutex so concurrent writers
// (HTTP handlers) and snapshotters coexist under the race detector.
type Histogram struct {
	mu   sync.Mutex
	hist *stats.Histogram

	// Exemplar capture: observations at or above exThreshold remember the
	// span that produced them, keyed by bucket upper bound (latest wins,
	// bounded by the bucket count). The threshold starts at zero when
	// exemplars are enabled — every bucket captures its first exemplar —
	// and is re-anchored to the live exQuantile at each window flush.
	exEnabled   bool
	exQuantile  float64
	exThreshold float64
	exemplars   map[float64]Exemplar
}

// WrapHistogram makes an obs histogram over an existing stats histogram.
// The caller may keep the underlying pointer for read-side convenience
// (Percentile etc.) once writes have stopped; during concurrent use all
// access must go through the wrapper.
func WrapHistogram(h *stats.Histogram) *Histogram {
	if h == nil {
		h = stats.NewLatencyHistogram()
	}
	return &Histogram{hist: h}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.hist.Add(v)
	h.mu.Unlock()
}

// Snapshot captures the histogram state under the lock.
func (h *Histogram) Snapshot() stats.HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist.Snapshot()
}

// Quantile reads a quantile under the lock.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist.Quantile(q)
}

// Unwrap returns the underlying stats histogram. Only read it after
// concurrent writers have stopped.
func (h *Histogram) Unwrap() *stats.Histogram { return h.hist }

// EnableExemplars turns on exemplar capture for observations at or above
// quantile q (e.g. 0.99). Capture starts immediately (threshold zero)
// and tightens to the live quantile on each RefreshExemplarThreshold.
func (h *Histogram) EnableExemplars(q float64) {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	h.exEnabled = true
	h.exQuantile = q
	h.exThreshold = 0
	if h.exemplars == nil {
		h.exemplars = map[float64]Exemplar{}
	}
	h.mu.Unlock()
}

// ObserveExemplar records v like Observe and, when exemplar capture is
// enabled and v clears the current threshold, stores ex (with Value set
// to v) against v's bucket.
func (h *Histogram) ObserveExemplar(v float64, ex Exemplar) {
	h.mu.Lock()
	h.hist.Add(v)
	if h.exEnabled && v >= h.exThreshold {
		ex.Value = v
		h.exemplars[h.hist.BucketUpperBound(v)] = ex
	}
	h.mu.Unlock()
}

// RefreshExemplarThreshold re-anchors the capture threshold to the
// configured quantile of everything observed so far. Windows call this
// on every flush so "tail" tracks the live distribution.
func (h *Histogram) RefreshExemplarThreshold() {
	h.mu.Lock()
	if h.exEnabled {
		h.exThreshold = h.hist.Quantile(h.exQuantile)
	}
	h.mu.Unlock()
}

// Exemplars returns the captured exemplars ordered by bucket upper
// bound (ascending), or nil when capture is disabled or empty.
func (h *Histogram) Exemplars() []Exemplar {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.exemplars) == 0 {
		return nil
	}
	bounds := make([]float64, 0, len(h.exemplars))
	for b := range h.exemplars {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	out := make([]Exemplar, len(bounds))
	for i, b := range bounds {
		out[i] = h.exemplars[b]
	}
	return out
}

// labelSep joins label values into child-map keys; \xff cannot appear in
// meaningful label values.
const labelSep = "\xff"

// child is one labeled metric inside a family.
type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is a named group of metrics sharing a kind and label names.
type family struct {
	name, help string
	kind       Kind
	labels     []string
	newHist    func() *stats.Histogram // histogram families only
	reg        *Registry               // owning registry, for self-metrics

	mu       sync.Mutex
	children map[string]*child
}

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), values...)}
		switch f.kind {
		case KindCounter:
			c.ctr = &Counter{}
			if f.reg != nil {
				c.ctr.disc = &f.reg.negDeltas
			}
		case KindGauge:
			c.gauge = &Gauge{}
		case KindHistogram:
			var h *stats.Histogram
			if f.newHist != nil {
				h = f.newHist()
			}
			c.hist = WrapHistogram(h)
		}
		f.children[key] = c
	}
	return c
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use. Registration is
// get-or-create: registering an existing name with a matching kind
// returns the existing family (mismatched kinds panic — that is always a
// programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family

	// Self-observability: discarded counter deltas and the drop counts of
	// any tracked tracers surface as synthetic obs_* families in every
	// snapshot, so silent data loss is never invisible.
	negDeltas atomic.Uint64
	tracers   []*Tracer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// TrackTracer registers t's dropped-event count for exposition as the
// obs_trace_dropped_events_total self-metric. Nil tracers are ignored;
// tracking the same tracer twice is harmless (counted once).
func (r *Registry) TrackTracer(t *Tracer) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.tracers {
		if have == t {
			return
		}
	}
	r.tracers = append(r.tracers, t)
}

func (r *Registry) family(name, help string, kind Kind, labels []string, newHist func() *stats.Histogram) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with %d labels (was %d)",
				name, len(labels), len(f.labels)))
		}
		return f
	}
	f = &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		newHist:  newHist,
		reg:      r,
		children: map[string]*child{},
	}
	r.families[name] = f
	return f
}

// Counter returns the unlabeled counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, KindCounter, nil, nil).get(nil).ctr
}

// CounterFunc registers the unlabeled counter name as a view of a count
// its owner already keeps: every read (Value, Snapshot, WriteProm, Merge,
// Windows) calls fn, so there is no second copy to keep in step.
//
// fn may run on any goroutine, so it must read atomics or take its
// owner's lock. The registry calls it with no registry or family lock
// held; a Windows seal holds only the Windows lock, so fn must not call
// into that Windows. Registering the name again replaces fn, and Adds to
// the counter are not visible while a function is registered.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.Counter(name, help).fn.Store(&fn)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, labels, nil)}
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).ctr }

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge, nil, nil).get(nil).gauge
}

// GaugeFunc registers the unlabeled gauge name as a view of a value its
// owner already keeps, under the same contract as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.Gauge(name, help).fn.Store(&fn)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, labels, nil)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).gauge }

// Histogram returns the unlabeled histogram with the given name,
// creating it with newHist (nil ⇒ stats.NewLatencyHistogram) on first
// registration.
func (r *Registry) Histogram(name, help string, newHist func() *stats.Histogram) *Histogram {
	return r.family(name, help, KindHistogram, nil, newHist).get(nil).hist
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with the given name;
// children are created with newHist (nil ⇒ stats.NewLatencyHistogram).
func (r *Registry) HistogramVec(name, help string, newHist func() *stats.Histogram, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, KindHistogram, labels, newHist)}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// MetricSnapshot is one metric's state inside a family snapshot.
type MetricSnapshot struct {
	LabelValues []string                 `json:"labels,omitempty"`
	Value       float64                  `json:"value,omitempty"`     // counters and gauges
	Histogram   *stats.HistogramSnapshot `json:"histogram,omitempty"` // histograms
	Exemplars   []Exemplar               `json:"exemplars,omitempty"` // histograms with capture enabled
}

// FamilySnapshot is one family's state.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    Kind             `json:"kind"`
	Labels  []string         `json:"label_names,omitempty"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically: families by name, children by label values.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// walk visits every family in name order with its children in label
// order — the one deterministic ordering Snapshot, Merge and Windows
// share. The registry and family locks are held only while the lists are
// copied, never while visit runs, so visit may read function-backed
// metrics.
func (r *Registry) walk(visit func(f *family, kids []*child)) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.mu.Lock()
		kids := make([]*child, 0, len(f.children))
		for _, c := range f.children {
			kids = append(kids, c)
		}
		f.mu.Unlock()
		sort.Slice(kids, func(i, j int) bool {
			return strings.Join(kids[i].values, labelSep) < strings.Join(kids[j].values, labelSep)
		})
		visit(f, kids)
	}
}

// Snapshot captures every family. It is safe to call while writers are
// active; each metric is read atomically (counters/gauges) or under its
// own lock (histograms), so the snapshot is per-metric consistent.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	r.walk(func(f *family, kids []*child) {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labels}
		for _, c := range kids {
			ms := MetricSnapshot{LabelValues: c.values}
			switch f.kind {
			case KindCounter:
				ms.Value = c.ctr.Value()
			case KindGauge:
				ms.Value = c.gauge.Value()
			case KindHistogram:
				hs := c.hist.Snapshot()
				ms.Histogram = &hs
				ms.Exemplars = c.hist.Exemplars()
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		snap.Families = append(snap.Families, fs)
	})

	r.mu.Lock()
	var dropped uint64
	for _, t := range r.tracers {
		dropped += t.Dropped()
	}
	neg := r.negDeltas.Load()
	r.mu.Unlock()
	snap.Families = append(snap.Families,
		FamilySnapshot{
			Name: SelfMetricNegativeDeltas, Kind: KindCounter,
			Help:    "counter Add calls discarded for being negative or NaN",
			Metrics: []MetricSnapshot{{Value: float64(neg)}},
		},
		FamilySnapshot{
			Name: SelfMetricTraceDropped, Kind: KindCounter,
			Help:    "trace events dropped by tracked tracers' event limits",
			Metrics: []MetricSnapshot{{Value: float64(dropped)}},
		})
	sort.Slice(snap.Families, func(i, j int) bool {
		return snap.Families[i].Name < snap.Families[j].Name
	})
	return snap
}

// Self-metric family names injected into every Snapshot (and therefore
// every Prometheus and JSON exposition) by the registry itself.
const (
	SelfMetricNegativeDeltas = "obs_counter_negative_deltas_total"
	SelfMetricTraceDropped   = "obs_trace_dropped_events_total"
)

// Find returns the family snapshot with the given name, or false.
func (s Snapshot) Find(name string) (FamilySnapshot, bool) {
	for _, f := range s.Families {
		if f.Name == name {
			return f, true
		}
	}
	return FamilySnapshot{}, false
}
