package main

import (
	"math"
	"sort"
	"strings"
)

// units names the unit of every metric cxlperf reports. Per-experiment
// timings (core.<id>.wall_s) are the only names not listed here.
var units = map[string]string{
	// End to end.
	"wall_s":      "s",
	"setup_s":     "s",
	"peak_rss_mb": "MB",

	"kvstore.deploy_s":         "s",
	"kvstore.warm_s":           "s",
	"kvstore.warm_heat_s":      "s",
	"kvstore.run_s":            "s",
	"kvstore.hit_ratio":        "ratio",
	"kvstore.virtual_ns_total": "sim_ns",
	"kvstore.sim_ops_per_s":    "1/s",
	"kvstore.backend_get_ns":   "ns",
	"kvstore.backend_set_ns":   "ns",

	"tiering.tick_s":         "s",
	"tiering.ticks":          "count",
	"tiering.migrated_bytes": "bytes",

	"workload.next_ns_per_op": "ns",

	"sim.events_fired":      "count",
	"sim.events_scheduled":  "count",
	"sim.events_canceled":   "count",
	"sim.host_ns_per_event": "ns",

	"memsim.solves_open":     "count",
	"memsim.solves_closed":   "count",
	"memsim.cache_hits":      "count",
	"memsim.cache_misses":    "count",
	"memsim.cache_hit_ratio": "ratio",

	"go.gc_cpu_s":    "s",
	"go.alloc_bytes": "bytes",
	"go.gc_cycles":   "count",

	"resp.p50_ms":              "ms",
	"resp.p99_ms":              "ms",
	"resp.get_p99_ms":          "ms",
	"resp.set_p99_ms":          "ms",
	"resp.max_ops_per_s":       "1/s",
	"resp.parse_ns_per_cmd":    "ns",
	"resp.dispatch_ns_per_cmd": "ns",
	"resp.commands":            "count",
	"resp.errors":              "count",
	"resp.protocol_errors":     "count",

	"spill.records_written":          "count",
	"spill.fsyncs":                   "count",
	"spill.fsyncs_per_record":        "ratio",
	"spill.bytes_written":            "bytes",
	"spill.write_amp":                "ratio",
	"spill.recovery_s":               "s",
	"spill.recovery_records_scanned": "count",

	"cxlserve.cpu_us_per_cmd": "us",
	"gen.cpu_us_per_cmd":      "us",
	"trace.overhead_ratio":    "ratio",
	"resp.rtt_samples":        "count",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	if strings.HasPrefix(name, "core.") && strings.HasSuffix(name, ".wall_s") {
		return "s"
	}
	return ""
}

// samples collects one pass's measurements: every repetition, window or
// set-up of a metric adds one value.
type samples map[string][]float64

func (s samples) add(name string, vs ...float64) { s[name] = append(s[name], vs...) }

// ratio adds num/den, or nothing when den is zero (the layer did no work).
func (s samples) ratio(name string, num, den float64) {
	if den != 0 {
		s.add(name, num/den)
	}
}

// Metric is one metric's summary over its samples. Value is what the
// run reports: the median, except for wall_s (see value).
type Metric struct {
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func summarize(name string, xs []float64) *Metric {
	q1, q3 := quartiles(xs)
	return &Metric{Unit: unitOf(name), N: len(xs), Value: value(name, xs), Median: median(xs), Q1: q1, Q3: q3, Samples: xs}
}

// value reduces a run's samples to its reported value. wall_s reports
// its fastest repetition: on a shared host, other tenants only ever slow
// a repetition down (memory-bound code by up to 2x, in episodes of
// seconds), so the minimum tracks the code's own cost more closely than
// the median. Every other metric reports its median.
func value(name string, xs []float64) float64 {
	if name == "wall_s" {
		return sorted(xs)[0]
	}
	return median(xs)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median matches Python's statistics.median.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), by which BENCHMARK.json's bounds are judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile adds the nearest-rank p-th percentile of round trips rts,
// given in seconds, in ms; nothing when there are none.
func (s samples) percentile(name string, rts []float64, p float64) {
	if len(rts) == 0 {
		return
	}
	asc := sorted(rts)
	i := max(int(math.Ceil(p/100*float64(len(asc))))-1, 0)
	s.add(name, asc[i]*1e3)
}
