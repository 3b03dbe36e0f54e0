package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlsim/internal/stats"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Re-registration returns the same metric.
	if r.Counter("c_total", "") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ops_total", "ops", "kind")
	v.With("read").Add(3)
	v.With("update").Add(1)
	if v.With("read").Value() != 3 {
		t.Fatal("labeled children not stable")
	}
	snap := r.Snapshot()
	f, ok := snap.Find("ops_total")
	if !ok || len(f.Metrics) != 2 {
		t.Fatalf("snapshot family = %+v", f)
	}
	// Children sorted by label value: read < update.
	if f.Metrics[0].LabelValues[0] != "read" || f.Metrics[1].LabelValues[0] != "update" {
		t.Fatalf("child order = %+v", f.Metrics)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("gauge re-registration of a counter name should panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramWrapping(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns", "latency", stats.NewLatencyHistogram)
	for _, v := range []float64{100, 200, 400} {
		h.Observe(v)
	}
	if got := h.Unwrap().Count(); got != 3 {
		t.Fatalf("count = %d", got)
	}
	if q := h.Quantile(0.5); q < 150 || q > 250 {
		t.Fatalf("p50 = %v, want ≈200", q)
	}
	snap := h.Snapshot()
	if snap.Count != 3 || math.Abs(snap.Sum-700) > 1e-6 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestConcurrentRegistryAccess is the satellite -race test: parallel
// counter increments, gauge sets, and histogram observations racing
// snapshots.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "")
	v := r.CounterVec("ops_total", "", "kind")
	g := r.Gauge("depth", "")
	h := r.Histogram("lat", "", nil)

	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kind := []string{"read", "update"}[w%2]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				v.With(kind).Inc()
				g.Set(float64(i))
				h.Observe(float64(100 + i))
			}
		}(w)
	}
	// Snapshot concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			snap := r.Snapshot()
			if _, err := snapToProm(snap); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := v.With("read").Value() + v.With("update").Value(); got != workers*perWorker {
		t.Fatalf("vec total = %v", got)
	}
	if got := h.Unwrap().Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d", got)
	}
}

func snapToProm(snap Snapshot) (string, error) {
	var b strings.Builder
	err := WriteProm(&b, snap)
	return b.String(), err
}

func TestPromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", "requests").Add(7)
	r.GaugeVec("util", "capacity fraction", "resource").With(`dev"0`).Set(0.25)
	h := r.Histogram("lat_ns", "latency", func() *stats.Histogram { return stats.NewHistogram(1, 2, 5) })
	h.Observe(2)
	h.Observe(1e9) // clamped overflow
	h.Observe(0.5) // underflow

	out, err := snapToProm(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP reqs_total requests\n# TYPE reqs_total counter\nreqs_total 7\n",
		"# TYPE util gauge\n",
		`util{resource="dev\"0"} 0.25`,
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing and end at _count.
	var last int
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_ns_bucket") {
			continue
		}
		fields := strings.Fields(line)
		n, err := strconv.Atoi(fields[len(fields)-1])
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Fatalf("bucket counts decrease at %q", line)
		}
		last = n
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}
}

// TestFuncMetrics takes function-backed metrics through every reader:
// Value, Snapshot, WriteProm, Merge and the Windows deltas all see the
// owner's count with no copy kept in the registry.
func TestFuncMetrics(t *testing.T) {
	var owned, level float64
	r := NewRegistry()
	r.CounterFunc("owned_total", "owner-kept count", func() float64 { return owned })
	r.GaugeFunc("level", "owner-kept level", func() float64 { return level })
	w := NewWindows(r, 10)

	owned, level = 3, 7
	if got := r.Counter("owned_total", "").Value(); got != 3 {
		t.Fatalf("Counter.Value = %v, want 3", got)
	}
	if got := r.Gauge("level", "").Value(); got != 7 {
		t.Fatalf("Gauge.Value = %v, want 7", got)
	}
	snap := r.Snapshot()
	if f, ok := snap.Find("owned_total"); !ok || f.Kind != KindCounter || f.Metrics[0].Value != 3 {
		t.Fatalf("snapshot counter = %+v", f)
	}
	if f, ok := snap.Find("level"); !ok || f.Kind != KindGauge || f.Metrics[0].Value != 7 {
		t.Fatalf("snapshot gauge = %+v", f)
	}
	prom, err := snapToProm(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP owned_total owner-kept count\n# TYPE owned_total counter\nowned_total 3\n",
		"# TYPE level gauge\nlevel 7\n",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, prom)
		}
	}

	w.Flush(10)
	owned, level = 5, 2
	w.Flush(20)
	ws := w.Snapshot()
	for i, want := range []struct{ delta, level float64 }{{3, 7}, {2, 2}} {
		if c := ws[i].Counters; len(c) != 1 || c[0].Name != "owned_total" || c[0].Delta != want.delta {
			t.Fatalf("window %d counters = %+v, want delta %v", i, c, want.delta)
		}
		if g := ws[i].Gauges; len(g) != 1 || g[0].Value != want.level {
			t.Fatalf("window %d gauges = %+v, want %v", i, g, want.level)
		}
	}

	dst := NewRegistry()
	dst.Counter("owned_total", "owner-kept count").Add(10)
	dst.Merge(r)
	dst.Merge(r)
	if got := dst.Counter("owned_total", "").Value(); got != 20 {
		t.Fatalf("merged counter = %v, want 10+5+5", got)
	}
	if got := dst.Gauge("level", "").Value(); got != 4 {
		t.Fatalf("merged gauge = %v, want 2+2", got)
	}

	// Registering the name again replaces the function.
	r.CounterFunc("owned_total", "owner-kept count", func() float64 { return 42 })
	if got := r.Counter("owned_total", "").Value(); got != 42 {
		t.Fatalf("re-registered counter = %v, want 42", got)
	}
}
