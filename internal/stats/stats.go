// Package stats provides the measurement primitives the cxlsim
// experiments report with: streaming summaries and log-bucketed latency
// histograms with percentile extraction.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count/mean/min/max in one pass. The zero value is
// ready to use.
type Summary struct {
	n        uint64
	mean     float64
	min, max float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// Merge folds another summary into s.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	s.mean += (o.mean - s.mean) * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Reset returns the summary to its zero state.
func (s *Summary) Reset() { *s = Summary{} }

// Histogram is a log-bucketed histogram tuned for latency-like positive
// values spanning several orders of magnitude (ns to ms). It supports
// percentile queries with bounded relative error set by bucketsPerDecade.
type Histogram struct {
	base    float64 // smallest representable value
	perDec  int     // buckets per decade
	lnRatio float64 // ln of per-bucket growth ratio
	counts  []uint64
	under   uint64 // observations below base
	sum     Summary
}

// NewHistogram builds a histogram covering [base, base*10^decades) with
// bucketsPerDecade resolution. Typical latency use:
// NewHistogram(1, 7, 90) covers 1 ns .. 10 ms at ~2.6% relative error.
func NewHistogram(base float64, decades, bucketsPerDecade int) *Histogram {
	if base <= 0 || decades <= 0 || bucketsPerDecade <= 0 {
		panic("stats: histogram parameters must be positive")
	}
	return &Histogram{
		base:    base,
		perDec:  bucketsPerDecade,
		lnRatio: math.Ln10 / float64(bucketsPerDecade),
		counts:  make([]uint64, decades*bucketsPerDecade+1),
	}
}

// NewLatencyHistogram covers 1 ns to 100 s, adequate for every latency
// cxlsim produces, at ~2.6% relative error.
func NewLatencyHistogram() *Histogram { return NewHistogram(1, 11, 90) }

func (h *Histogram) bucket(x float64) int {
	if x < h.base {
		return -1
	}
	b := int(math.Log(x/h.base) / h.lnRatio)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	return b
}

// Add records one observation. Non-positive and NaN values are counted in
// the underflow bucket and excluded from percentiles.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) || x < h.base {
		h.under++
		return
	}
	h.counts[h.bucket(x)]++
	h.sum.Add(x)
}

// Count reports the number of in-range observations.
func (h *Histogram) Count() uint64 { return h.sum.Count() }

// Mean reports the exact mean of in-range observations.
func (h *Histogram) Mean() float64 { return h.sum.Mean() }

// Max reports the exact max of in-range observations.
func (h *Histogram) Max() float64 { return h.sum.Max() }

// Min reports the exact min of in-range observations.
func (h *Histogram) Min() float64 { return h.sum.Min() }

// value returns the geometric midpoint of bucket b.
func (h *Histogram) value(b int) float64 {
	return h.base * math.Exp(h.lnRatio*(float64(b)+0.5))
}

// Quantile returns the value at quantile q in [0,1]. With no observations
// it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.sum.Count()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.sum.Min()
	}
	if q >= 1 {
		return h.sum.Max()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum >= rank {
			return h.value(b)
		}
	}
	return h.sum.Max()
}

// Percentile is Quantile with p in [0,100].
func (h *Histogram) Percentile(p float64) float64 { return h.Quantile(p / 100) }

// Merge folds another histogram into h. Both must have identical geometry.
func (h *Histogram) Merge(o *Histogram) {
	if h.base != o.base || h.perDec != o.perDec || len(h.counts) != len(o.counts) {
		panic("stats: merging histograms with different geometry")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.under += o.under
	h.sum.Merge(o.sum)
}

// Bucket is one histogram bucket in a snapshot: the count of in-range
// observations with value < UpperBound's next bound and ≥ the previous
// bound. The final (clamp) bucket reports UpperBound = +Inf because
// overflowing observations are clamped into it.
type Bucket struct {
	UpperBound float64 // exclusive upper edge of the bucket
	Count      uint64
}

// HistogramSnapshot is a point-in-time copy of a histogram's state,
// sufficient for Prometheus-style exposition: total count, exact sum,
// underflow count, and the non-empty buckets in ascending bound order.
type HistogramSnapshot struct {
	Count     uint64   // in-range observations
	Sum       float64  // exact sum of in-range observations
	Underflow uint64   // observations below the histogram base
	Buckets   []Bucket // non-empty buckets only, ascending
}

// Snapshot captures the histogram's current state. Empty histograms
// return a zero snapshot with no buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Count:     h.sum.Count(),
		Sum:       h.sum.Mean() * float64(h.sum.Count()),
		Underflow: h.under,
	}
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		ub := h.base * math.Exp(h.lnRatio*float64(b+1))
		if b == len(h.counts)-1 {
			// The last bucket absorbs clamped overflow; its true upper
			// edge is unbounded.
			ub = math.Inf(1)
		}
		snap.Buckets = append(snap.Buckets, Bucket{UpperBound: ub, Count: c})
	}
	return snap
}

// BucketUpperBound returns the exclusive upper edge of the bucket that
// would receive observation x — the `le` value its count lands under in
// a Snapshot. Underflow observations report the histogram base; clamped
// overflow reports +Inf, matching Snapshot's final bucket.
func (h *Histogram) BucketUpperBound(x float64) float64 {
	b := h.bucket(x)
	if b < 0 {
		return h.base
	}
	if b == len(h.counts)-1 {
		return math.Inf(1)
	}
	return h.base * math.Exp(h.lnRatio*float64(b+1))
}

// Sub returns the interval difference s−prev: the observations recorded
// between the two snapshots. Both must come from the same histogram with
// prev taken earlier (counts are monotone); violating that panics rather
// than returning a silently negative window.
func (s HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	if s.Count < prev.Count || s.Underflow < prev.Underflow {
		panic("stats: HistogramSnapshot.Sub with a later prev")
	}
	d := HistogramSnapshot{
		Count:     s.Count - prev.Count,
		Sum:       s.Sum - prev.Sum,
		Underflow: s.Underflow - prev.Underflow,
	}
	// Merge-walk by upper bound: both lists are ascending, and any bucket
	// non-empty in prev is non-empty in s.
	j := 0
	for _, b := range s.Buckets {
		var prevCount uint64
		for j < len(prev.Buckets) && prev.Buckets[j].UpperBound < b.UpperBound {
			j++
		}
		if j < len(prev.Buckets) && prev.Buckets[j].UpperBound == b.UpperBound {
			prevCount = prev.Buckets[j].Count
		}
		if b.Count < prevCount {
			panic("stats: HistogramSnapshot.Sub with a later prev")
		}
		if c := b.Count - prevCount; c > 0 {
			d.Buckets = append(d.Buckets, Bucket{UpperBound: b.UpperBound, Count: c})
		}
	}
	return d
}

// Quantile returns the value at quantile q in [0,1] computed from the
// snapshot's buckets. Because a snapshot carries bucket edges rather than
// exact observations, the result is the upper bound of the bucket holding
// the rank (a ≤2.6% overestimate at the default latency geometry);
// underflow observations rank below every bucket and report 0. With no
// observations it returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := s.Count + s.Underflow
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	if rank <= s.Underflow {
		return 0
	}
	cum := s.Underflow
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return b.UpperBound
		}
	}
	if n := len(s.Buckets); n > 0 {
		return s.Buckets[n-1].UpperBound
	}
	return 0
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.under = 0
	h.sum.Reset()
}

// String summarizes the histogram for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("hist{n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f}",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Percentiles computes exact percentiles from a sample slice (sorted copy;
// the input is not modified). p values are in [0,100]. Used by tests to
// validate Histogram accuracy and by small-sample experiments.
func Percentiles(samples []float64, ps ...float64) []float64 {
	if len(samples) == 0 {
		return make([]float64, len(ps))
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p <= 0 {
			out[i] = sorted[0]
			continue
		}
		if p >= 100 {
			out[i] = sorted[len(sorted)-1]
			continue
		}
		rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		out[i] = sorted[rank]
	}
	return out
}
