package memsim

import (
	"math"
	"testing"
)

// syntheticSamples sweeps a known resource and returns its curve.
func syntheticSamples(r *Resource, n int) []Sample {
	peak := r.Peak.At(1)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		u := 0.02 + 0.95*float64(i)/float64(n-1)
		out = append(out, Sample{
			BandwidthGBps: u * peak,
			LatencyNs:     r.latencyAt(u, ReadOnly),
		})
	}
	return out
}

func TestFitRecoversKnownDevice(t *testing.T) {
	truth := &Resource{
		Name: "truth", IdleRead: 250, IdleWrite: 250,
		Peak: Flat(56.7), Knee: Flat(0.88), QueueScale: 2,
	}
	fit, err := Fit(syntheticSamples(truth, 40))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.PeakGBps-56.7) > 0.6 {
		t.Errorf("peak = %v, want 56.7", fit.PeakGBps)
	}
	if math.Abs(fit.IdleNs-truth.latencyAt(0.02, ReadOnly)) > 5 {
		t.Errorf("idle = %v, want ≈%v", fit.IdleNs, truth.latencyAt(0.02, ReadOnly))
	}
	if math.Abs(fit.Knee-0.88) > 0.04 {
		t.Errorf("knee = %v, want 0.88", fit.Knee)
	}
	if math.Abs(fit.QueueScale-2) > 0.4 {
		t.Errorf("queue scale = %v, want 2", fit.QueueScale)
	}
	if fit.RMSE > 10 {
		t.Errorf("RMSE = %v, want small for noiseless data", fit.RMSE)
	}
}

func TestFittedResourceReproducesCurve(t *testing.T) {
	truth := NewCXLDevice("cxl")
	fit, err := Fit(syntheticSamples(truth, 120))
	if err != nil {
		t.Fatal(err)
	}
	re := &Resource{
		Name: "refit", IdleRead: fit.IdleNs, IdleWrite: fit.IdleNs,
		Peak: Flat(fit.PeakGBps), Knee: Flat(fit.Knee), QueueScale: fit.QueueScale,
	}
	for _, u := range []float64{0.1, 0.5, 0.85, 0.95} {
		want := truth.latencyAt(u, ReadOnly)
		got := re.latencyAt(u, ReadOnly)
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("u=%v: refit latency %v vs truth %v (>10%%)", u, got, want)
		}
	}
}

func TestFitFromMLCSweep(t *testing.T) {
	// End-to-end: fit from an actual mlc-style sweep of a path (the
	// workflow a user follows with real cxlmlc CSV data).
	truth := NewDDRDomain("ddr")
	path := NewPath("p", truth)
	var samples []Sample
	for i := 0; i < 30; i++ {
		offered := 0.02*67 + float64(i)/29*0.96*67
		res, _ := SolveOpen([]OpenFlow{{Placement: SinglePath(path), Mix: ReadOnly, Offered: offered}})
		samples = append(samples, Sample{BandwidthGBps: res[0].Achieved, LatencyNs: res[0].Latency})
	}
	fit, err := Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if idle := path.IdleLatency(ReadOnly); math.Abs(fit.IdleNs-idle)/idle > 0.1 {
		t.Errorf("fitted idle = %v, want ≈%v", fit.IdleNs, idle)
	}
	if peak := path.PeakBandwidth(ReadOnly); math.Abs(fit.PeakGBps-peak)/peak > 0.05 {
		t.Errorf("fitted peak = %v, want ≈%v", fit.PeakGBps, peak)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Error("nil samples should error")
	}
	if _, err := Fit(make([]Sample, 3)); err == nil {
		t.Error("too few samples should error")
	}
	bad := []Sample{{1, -5}, {2, 1}, {3, 1}, {4, 1}, {5, 1}, {6, 1}}
	if _, err := Fit(bad); err == nil {
		t.Error("negative latency should error")
	}
	// Non-finite values compare false against the range checks, so each
	// must be rejected on its own, next to an otherwise valid sweep.
	for _, s := range []Sample{
		{BandwidthGBps: 100, LatencyNs: math.NaN()},
		{BandwidthGBps: math.Inf(1), LatencyNs: 5},
		{BandwidthGBps: math.NaN(), LatencyNs: 5},
		{BandwidthGBps: 100, LatencyNs: math.Inf(1)},
		{BandwidthGBps: math.Inf(-1), LatencyNs: 5},
	} {
		samples := append(syntheticSamples(NewCXLDevice("cxl"), 20), s)
		if _, err := Fit(samples); err == nil {
			t.Errorf("sample %+v should error", s)
		}
	}
	zeros := make([]Sample, 6)
	for i := range zeros {
		zeros[i].LatencyNs = 1
	}
	if _, err := Fit(zeros); err == nil {
		t.Error("all-zero bandwidth should error")
	}
}
