package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !almostEqual(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min,max = %v,%v want 2,9", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 || s.Count() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var all, a, b Summary
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*10 + 100
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count = %d, want %d", a.Count(), all.Count())
	}
	if !almostEqual(a.Mean(), all.Mean(), 1e-9) {
		t.Fatalf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var empty, s Summary
	s.Add(5)
	s.Merge(empty) // no-op
	if s.Count() != 1 || s.Mean() != 5 {
		t.Fatal("merge with empty changed summary")
	}
	var dst Summary
	dst.Merge(s)
	if dst.Count() != 1 || dst.Mean() != 5 {
		t.Fatal("merge into empty failed")
	}
}

func TestSummaryReset(t *testing.T) {
	var s Summary
	s.Add(3)
	s.Reset()
	if s.Count() != 0 || s.Mean() != 0 {
		t.Fatal("reset did not clear summary")
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	h := NewLatencyHistogram()
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-normal latencies around ~300ns, heavy tail.
		x := math.Exp(rng.NormFloat64()*0.8 + math.Log(300))
		h.Add(x)
		samples = append(samples, x)
	}
	exact := Percentiles(samples, 50, 90, 99, 99.9)
	approx := []float64{h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Percentile(99.9)}
	for i := range exact {
		if !almostEqual(exact[i], approx[i], 0.05) {
			t.Errorf("p[%d]: histogram %v vs exact %v (>5%% error)", i, approx[i], exact[i])
		}
	}
}

func TestHistogramEdgeQuantiles(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	h.Add(100)
	h.Add(200)
	if q := h.Quantile(0); q != 100 {
		t.Fatalf("q0 = %v, want exact min 100", q)
	}
	if q := h.Quantile(1); q != 200 {
		t.Fatalf("q1 = %v, want exact max 200", q)
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewHistogram(10, 3, 10)
	h.Add(5)          // below base
	h.Add(math.NaN()) // NaN
	h.Add(-1)         // negative
	if h.Count() != 0 {
		t.Fatalf("in-range count = %d, want 0", h.Count())
	}
	if h.under != 3 {
		t.Fatalf("underflow = %d, want 3", h.under)
	}
}

func TestHistogramOverflowClamps(t *testing.T) {
	h := NewHistogram(1, 2, 10) // covers 1..100
	h.Add(1e9)                  // way past the top
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if q := h.Quantile(0.5); q < 50 {
		t.Fatalf("overflowed value quantile %v, should land in top bucket", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewLatencyHistogram(), NewLatencyHistogram()
	a.Add(100)
	b.Add(1000)
	a.Merge(b)
	if a.Count() != 2 {
		t.Fatalf("merged count = %d, want 2", a.Count())
	}
	if a.Min() != 100 || a.Max() != 1000 {
		t.Fatal("merged min/max wrong")
	}
}

func TestHistogramMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched histograms did not panic")
		}
	}()
	NewHistogram(1, 2, 10).Merge(NewHistogram(1, 3, 10))
}

func TestHistogramBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram params did not panic")
		}
	}()
	NewHistogram(0, 1, 1)
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(100)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(100)
	if h.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestPercentilesExact(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	ps := Percentiles(xs, 0, 50, 100)
	if ps[0] != 1 || ps[1] != 5 || ps[2] != 9 {
		t.Fatalf("percentiles = %v, want [1 5 9]", ps)
	}
	// Input must not be mutated.
	if xs[0] != 9 {
		t.Fatal("Percentiles mutated input")
	}
	empty := Percentiles(nil, 50)
	if empty[0] != 0 {
		t.Fatal("empty input percentile should be 0")
	}
}

// Property: histogram quantiles are within one bucket ratio of exact
// sample quantiles for uniformly random positive data.
func TestPropertyHistogramQuantileBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewLatencyHistogram()
		var xs []float64
		for i := 0; i < 500; i++ {
			x := 1 + rng.Float64()*1e6
			h.Add(x)
			xs = append(xs, x)
		}
		exact := Percentiles(xs, 50, 95)
		for i, p := range []float64{50, 95} {
			got := h.Percentile(p)
			// one bucket ratio = 10^(1/90) ≈ 1.026; allow 2 ratios slack
			if got < exact[i]/1.06 || got > exact[i]*1.06 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary mean is always between min and max.
func TestPropertySummaryMeanBounded(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		n := 0
		for _, x := range xs {
			// Bound the domain: Welford's d*d intermediate overflows
			// near ±1e154; cxlsim values are latencies/bandwidths far
			// below that.
			if math.IsNaN(x) || math.Abs(x) > 1e30 {
				continue
			}
			s.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewLatencyHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(float64(100 + i%1000))
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i))
	}
}

func TestHistogramSnapshotEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Underflow != 0 {
		t.Fatalf("empty snapshot = %+v", snap)
	}
	if len(snap.Buckets) != 0 {
		t.Fatalf("empty histogram has %d buckets", len(snap.Buckets))
	}
}

func TestHistogramSnapshotBasic(t *testing.T) {
	h := NewHistogram(1, 3, 10) // 1 .. 1000
	for _, v := range []float64{2, 2, 50, 500} {
		h.Add(v)
	}
	h.Add(0.5) // underflow
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Fatalf("count = %d, want 4", snap.Count)
	}
	if snap.Underflow != 1 {
		t.Fatalf("underflow = %d, want 1", snap.Underflow)
	}
	if math.Abs(snap.Sum-554) > 1e-9 {
		t.Fatalf("sum = %v, want 554", snap.Sum)
	}
	var total uint64
	last := 0.0
	for _, b := range snap.Buckets {
		if b.Count == 0 {
			t.Fatalf("snapshot contains empty bucket %+v", b)
		}
		if b.UpperBound <= last {
			t.Fatalf("bucket bounds not ascending: %v after %v", b.UpperBound, last)
		}
		last = b.UpperBound
		total += b.Count
	}
	if total != snap.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, snap.Count)
	}
	// Every observation must fall strictly below its bucket's bound.
	if got := snap.Buckets[0].Count; got != 2 {
		t.Fatalf("first bucket count = %d, want the two 2.0 observations", got)
	}
}

func TestHistogramSnapshotClampedOverflow(t *testing.T) {
	h := NewHistogram(1, 2, 5) // covers 1 .. 100; larger values clamp
	h.Add(10)
	h.Add(1e9) // clamped into the final bucket
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count = %d, want 2", snap.Count)
	}
	lastB := snap.Buckets[len(snap.Buckets)-1]
	if !math.IsInf(lastB.UpperBound, 1) {
		t.Fatalf("clamp bucket bound = %v, want +Inf", lastB.UpperBound)
	}
	if lastB.Count != 1 {
		t.Fatalf("clamp bucket count = %d, want 1", lastB.Count)
	}
	if math.Abs(snap.Sum-(10+1e9)) > 1 {
		t.Fatalf("sum = %v, want exact sum incl. clamped value", snap.Sum)
	}
}
