package memsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file addresses the paper's third motivation head-on: the scarcity
// of open empirical CXL data "hinders efforts to ... develop performance
// models based on empirical evidence" (§1). Fit reverses the device
// model: given measured (bandwidth, latency) samples — from the paper's
// artifact release, from cxlmlc CSV output, or from a real machine — it
// recovers the Resource parameters (idle latency, peak bandwidth, knee,
// queue scale) so new hardware can be dropped into every cxlsim
// experiment.

// Sample is one measured loaded-latency point at a single mix.
type Sample struct {
	BandwidthGBps float64
	LatencyNs     float64
}

// FitResult are the recovered single-mix device parameters.
type FitResult struct {
	IdleNs     float64
	PeakGBps   float64
	Knee       float64
	QueueScale float64
	// RMSE is the fit's root-mean-square latency error over the samples.
	RMSE float64
}

// ErrTooFewSamples is returned when the input cannot constrain the model.
var ErrTooFewSamples = errors.New("memsim: need at least 6 samples to fit")

// Fit recovers device parameters from loaded-latency samples of one mix.
//
// Procedure: idle = min latency; peak = max bandwidth; then a grid search
// over knee ∈ [0.5, 0.95] with, for each knee, the closed-form
// least-squares queue scale for the post-knee residuals against the
// latencyAt model shape.
func Fit(samples []Sample) (FitResult, error) {
	if len(samples) < 6 {
		return FitResult{}, ErrTooFewSamples
	}
	pts := append([]Sample(nil), samples...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].BandwidthGBps < pts[j].BandwidthGBps })

	idle := math.Inf(1)
	peak := 0.0
	for _, s := range pts {
		lat, bw := s.LatencyNs, s.BandwidthGBps
		if math.IsNaN(lat) || math.IsNaN(bw) || math.IsInf(lat, 0) || math.IsInf(bw, 0) || lat <= 0 || bw < 0 {
			return FitResult{}, fmt.Errorf("memsim: invalid sample %+v", s)
		}
		if s.LatencyNs < idle {
			idle = s.LatencyNs
		}
		if s.BandwidthGBps > peak {
			peak = s.BandwidthGBps
		}
	}
	if peak == 0 {
		return FitResult{}, errors.New("memsim: all samples at zero bandwidth")
	}

	model := func(knee, qs, u float64) float64 {
		r := &Resource{IdleRead: idle, IdleWrite: idle, Peak: Flat(1),
			Knee: Flat(knee), QueueScale: qs}
		return r.latencyAt(u, ReadOnly)
	}

	// The true peak is only observable if the sweep saturated; grid it
	// from the max observed bandwidth up to 15% beyond.
	best := FitResult{IdleNs: idle, PeakGBps: peak, Knee: 0.8, QueueScale: 0, RMSE: math.Inf(1)}
	bestRel := math.Inf(1)
	maxBW := peak
	for peakScale := 1.0; peakScale <= 1.151; peakScale += 0.01 {
		peak := maxBW * peakScale
		fitOne(pts, peak, idle, model, &best, &bestRel)
	}
	return best, nil
}

// fitOne grid-searches the knee for one candidate peak, updating best.
func fitOne(pts []Sample, peak, idle float64,
	model func(knee, qs, u float64) float64, best *FitResult, bestRel *float64) {
	for knee := 0.5; knee <= 0.951; knee += 0.01 {
		// Weighted closed-form least squares for the queue scale:
		// latencyAt = base(u) + qs·idle·g(u) ⇒ qs = Σw·resid·basis /
		// Σw·basis². Weights 1/obs² make the objective *relative* error,
		// which is what pins the knee position — absolute least squares
		// lets the huge saturated-tail values swamp the knee region and
		// leaves gentle curves unidentifiable.
		var num, den float64
		for _, s := range pts {
			u := s.BandwidthGBps / peak
			w := 1 / (s.LatencyNs * s.LatencyNs)
			basis := model(knee, 1, u) - model(knee, 0, u)
			resid := s.LatencyNs - model(knee, 0, u)
			num += w * resid * basis
			den += w * basis * basis
		}
		qs := 0.0
		if den > 0 {
			qs = num / den
		}
		if qs < 0 {
			qs = 0
		}
		var sse, relSSE float64
		for _, s := range pts {
			u := s.BandwidthGBps / peak
			d := s.LatencyNs - model(knee, qs, u)
			sse += d * d
			rd := d / s.LatencyNs
			relSSE += rd * rd
		}
		if relSSE < *bestRel {
			*bestRel = relSSE
			best.Knee, best.QueueScale, best.PeakGBps = knee, qs, peak
			best.RMSE = math.Sqrt(sse / float64(len(pts)))
		}
	}
}
