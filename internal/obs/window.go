package obs

import (
	"encoding/json"
	"io"
	"strings"
	"sync"

	"cxlsim/internal/sim"
	"cxlsim/internal/stats"
)

// Windows turns a registry's cumulative metrics into fixed-length
// virtual-time windows: per-window counter deltas and rates, gauge
// samples, and histogram interval distributions with tail quantiles.
//
// The caller flushes on its natural epoch boundary (the kvstore epoch
// ticker, the llmserve virtual frontier); Windows seals every window
// whose end the flush time has passed, attributing the delta since the
// previous flush to the first sealed window and emitting empty windows
// for any fully-skipped intervals. Because flush times come from the
// simulation's virtual clock, two same-seed runs produce byte-identical
// window sequences regardless of wall-clock scheduling or -parallel.
//
// A nil *Windows ignores every call, so instrumented code needs no
// "windows enabled?" branches. All methods are safe for concurrent use.
type Windows struct {
	reg    *Registry
	length sim.Time

	mu        sync.Mutex
	cur       int64    // index of the currently-open window
	lastFlush sim.Time // monotonic guard for concurrent wall-clock use
	closed    bool
	prevCtr   map[string]float64
	prevHist  map[string]stats.HistogramSnapshot
	sealed    []WindowSnapshot
	onSeal    []func(WindowSnapshot)
}

// WindowCounter is one counter family child's activity inside a window.
// Children with zero delta are omitted from the snapshot.
type WindowCounter struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Delta  float64  `json:"delta"`
	Rate   float64  `json:"rate_per_sec"` // delta over the window's virtual span
}

// WindowGauge is one gauge family child's value at the window seal.
type WindowGauge struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Value  float64  `json:"value"`
}

// WindowHistogram is one histogram family child's interval distribution
// inside a window, with the tail quantiles the SLO layer consumes.
// Children with no observations in the window are omitted.
type WindowHistogram struct {
	Name      string         `json:"name"`
	Labels    []string       `json:"labels,omitempty"`
	Count     uint64         `json:"count"`
	Sum       float64        `json:"sum"`
	Underflow uint64         `json:"underflow,omitempty"`
	Buckets   []stats.Bucket `json:"buckets,omitempty"`
	P50       float64        `json:"p50"`
	P95       float64        `json:"p95"`
	P99       float64        `json:"p99"`
	P999      float64        `json:"p999"`
}

// WindowSnapshot is one sealed window. Slices are ordered like
// Registry.Snapshot: families by name, children by label values.
type WindowSnapshot struct {
	Index      int64             `json:"index"`
	StartNs    float64           `json:"start_ns"`
	EndNs      float64           `json:"end_ns"`
	Partial    bool              `json:"partial,omitempty"` // final window sealed by Close before its boundary
	Counters   []WindowCounter   `json:"counters,omitempty"`
	Gauges     []WindowGauge     `json:"gauges,omitempty"`
	Histograms []WindowHistogram `json:"histograms,omitempty"`
}

// NewWindows creates a windowed view over reg with the given virtual
// window length (must be positive).
func NewWindows(reg *Registry, length sim.Time) *Windows {
	if reg == nil {
		panic("obs: NewWindows with nil registry")
	}
	if length <= 0 {
		panic("obs: NewWindows with non-positive length")
	}
	return &Windows{
		reg:      reg,
		length:   length,
		prevCtr:  map[string]float64{},
		prevHist: map[string]stats.HistogramSnapshot{},
	}
}

// Length returns the configured window length.
func (w *Windows) Length() sim.Time {
	if w == nil {
		return 0
	}
	return w.length
}

// OnSeal registers fn to run synchronously for every sealed window, in
// window order — the hook the SLO evaluator hangs off. fn runs with the
// Windows lock held: it may touch the underlying registry (counters it
// bumps land in later windows) but must not call back into Windows.
func (w *Windows) OnSeal(fn func(WindowSnapshot)) {
	if w == nil || fn == nil {
		return
	}
	w.mu.Lock()
	w.onSeal = append(w.onSeal, fn)
	w.mu.Unlock()
}

// Flush advances the windowed view to virtual time now, sealing every
// window whose boundary has passed. Metric deltas accumulated since the
// previous flush are attributed to the first sealed window; fully
// skipped windows seal empty. Flushes at or before the previous flush
// time are ignored, so concurrent out-of-order callers are safe.
func (w *Windows) Flush(now sim.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || now <= w.lastFlush {
		return
	}
	w.lastFlush = now
	// A flush exactly on a boundary closes the window ending there; the
	// epsilon forgives float error just below the boundary.
	completed := int64(float64(now)/float64(w.length) + 1e-9)
	if completed <= w.cur {
		return
	}
	// First iteration takes the accumulated deltas; any further windows
	// were fully skipped and seal empty.
	for w.cur < completed {
		w.seal(w.endOf(w.cur), false)
	}
}

// Close seals the currently-open window at virtual time now (marked
// Partial if now is before its natural boundary) and stops the view;
// later Flush/Close calls are no-ops. Call once at end of run so the
// tail of the data is not silently dropped.
func (w *Windows) Close(now sim.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	if now > w.lastFlush {
		w.lastFlush = now
	}
	// Seal every fully-elapsed window first (as Flush would), then the
	// partial remainder if the run ended strictly inside a window.
	completed := int64(float64(now)/float64(w.length) + 1e-9)
	for w.cur < completed {
		w.seal(w.endOf(w.cur), false)
	}
	if float64(now) > float64(w.cur)*float64(w.length) {
		w.seal(now, true)
	}
}

// endOf returns the natural end of window k.
func (w *Windows) endOf(k int64) sim.Time {
	return sim.Time(float64(k+1) * float64(w.length))
}

// seal closes the currently-open window with the given end time,
// appends its snapshot, advances to the next window, and fires the
// OnSeal hooks. Caller holds w.mu.
func (w *Windows) seal(end sim.Time, partial bool) {
	start := float64(w.cur) * float64(w.length)
	ws := WindowSnapshot{
		Index:   w.cur,
		StartNs: start,
		EndNs:   float64(end),
		Partial: partial,
	}
	w.collect(&ws)
	w.sealed = append(w.sealed, ws)
	w.cur++
	for _, fn := range w.onSeal {
		fn(ws)
	}
}

// collect walks the registry, computes deltas against the previous
// seal, and refreshes exemplar thresholds so "tail" tracks the live
// distribution window over window. Caller holds w.mu.
func (w *Windows) collect(ws *WindowSnapshot) {
	span := (ws.EndNs - ws.StartNs) / 1e9 // seconds of virtual time
	w.reg.walk(func(f *family, kids []*child) {
		for _, c := range kids {
			key := f.name + labelSep + strings.Join(c.values, labelSep)
			switch f.kind {
			case KindCounter:
				v := c.ctr.Value()
				delta := v - w.prevCtr[key]
				w.prevCtr[key] = v
				if delta != 0 {
					wc := WindowCounter{Name: f.name, Labels: c.values, Delta: delta}
					if span > 0 {
						wc.Rate = delta / span
					}
					ws.Counters = append(ws.Counters, wc)
				}
			case KindGauge:
				ws.Gauges = append(ws.Gauges, WindowGauge{Name: f.name, Labels: c.values, Value: c.gauge.Value()})
			case KindHistogram:
				hs := c.hist.Snapshot()
				prev, ok := w.prevHist[key]
				w.prevHist[key] = hs
				d := hs
				if ok {
					d = hs.Sub(prev)
				}
				c.hist.RefreshExemplarThreshold()
				if d.Count+d.Underflow == 0 {
					continue
				}
				ws.Histograms = append(ws.Histograms, WindowHistogram{
					Name: f.name, Labels: c.values,
					Count: d.Count, Sum: d.Sum, Underflow: d.Underflow,
					Buckets: d.Buckets,
					P50:     d.Quantile(0.50),
					P95:     d.Quantile(0.95),
					P99:     d.Quantile(0.99),
					P999:    d.Quantile(0.999),
				})
			}
		}
	})
}

// Snapshot returns a copy of every sealed window in order.
func (w *Windows) Snapshot() []WindowSnapshot {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]WindowSnapshot(nil), w.sealed...)
}

// WriteJSON serializes the sealed windows as a JSON array.
func (w *Windows) WriteJSON(out io.Writer) error {
	snap := w.Snapshot()
	if snap == nil {
		snap = []WindowSnapshot{}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	return enc.Encode(snap)
}
