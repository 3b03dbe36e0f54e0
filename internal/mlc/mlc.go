// Package mlc reimplements the measurement methodology of Intel's Memory
// Latency Checker over the simulated memory hierarchy (§3.1): for a given
// CPU→memory path and read:write mix it sweeps the injection rate from
// idle to past saturation and records the (bandwidth, loaded latency)
// curve — the exact data behind the paper's Figures 3 and 4.
//
// Like MLC, the sweep uses 64-byte accesses and a fixed thread count
// whose aggregate injection rate, not the thread count itself, determines
// memory-request concurrency.
package mlc

import (
	"fmt"

	"cxlsim/internal/memsim"
	"cxlsim/internal/par"
)

// Options configures a sweep.
type Options struct {
	// Threads is the number of injector threads (paper: 16). It bounds
	// the maximum offered load via per-thread concurrency.
	Threads int
	// AccessBytes is the access granularity (paper: 64).
	AccessBytes float64
	// Steps is the number of sweep points from near-idle to overdrive.
	Steps int
	// Overdrive is the multiple of path peak bandwidth offered at the
	// last sweep step (>1 exercises the saturated/receding regime).
	Overdrive float64
	// Parallel caps the worker goroutines solving sweep points (each
	// point is an independent open solve). 0 means GOMAXPROCS; 1 forces
	// serial. Results are index-aligned, so curves are identical at any
	// parallelism.
	Parallel int
}

// DefaultOptions mirrors the paper's MLC configuration.
func DefaultOptions() Options {
	return Options{Threads: 16, AccessBytes: 64, Steps: 40, Overdrive: 1.25}
}

func (o *Options) fill() {
	if o.Threads == 0 {
		o.Threads = 16
	}
	if o.AccessBytes == 0 {
		o.AccessBytes = 64
	}
	if o.Steps == 0 {
		o.Steps = 40
	}
	if o.Overdrive == 0 {
		o.Overdrive = 1.25
	}
	if o.Threads < 1 || o.Steps < 2 || o.Overdrive <= 0 || o.AccessBytes <= 0 {
		panic(fmt.Sprintf("mlc: invalid options %+v", *o))
	}
}

// Point is one sweep sample.
type Point struct {
	OfferedGBps  float64 // injection rate
	AchievedGBps float64 // delivered bandwidth
	LatencyNs    float64 // loaded per-access latency
}

// Curve is a full loaded-latency curve for one (path, mix) pair.
type Curve struct {
	PathName string
	Mix      memsim.Mix
	Points   []Point
}

// IdleLatency returns the first (lowest-load) latency sample.
func (c Curve) IdleLatency() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	return c.Points[0].LatencyNs
}

// PeakBandwidth returns the maximum achieved bandwidth over the sweep.
func (c Curve) PeakBandwidth() float64 {
	max := 0.0
	for _, p := range c.Points {
		if p.AchievedGBps > max {
			max = p.AchievedGBps
		}
	}
	return max
}

// KneeUtilization estimates where latency takes off: the fraction of peak
// bandwidth at which loaded latency first exceeds 1.2× idle.
func (c Curve) KneeUtilization() float64 {
	idle := c.IdleLatency()
	peak := c.PeakBandwidth()
	if idle == 0 || peak == 0 {
		return 0
	}
	for _, p := range c.Points {
		if p.LatencyNs > idle*1.2 {
			return p.AchievedGBps / peak
		}
	}
	return 1
}

// LoadedLatency sweeps one path with one mix. Sweep points are
// independent open solves, resolved in parallel (opts.Parallel workers)
// with results index-aligned to the injection schedule, so the curve is
// identical at any parallelism.
func LoadedLatency(path *memsim.Path, mix memsim.Mix, opts Options) Curve {
	opts.fill()
	peak := path.PeakBandwidth(mix)
	curve := Curve{PathName: path.Name, Mix: mix, Points: make([]Point, opts.Steps)}
	pl := memsim.SinglePath(path)
	par.ForEach(opts.Steps, opts.Parallel, func(i int) {
		frac := 0.02 + (opts.Overdrive-0.02)*float64(i)/float64(opts.Steps-1)
		offered := frac * peak
		res, _ := memsim.SolveOpen([]memsim.OpenFlow{{Placement: pl, Mix: mix, Offered: offered}})
		curve.Points[i] = Point{
			OfferedGBps:  offered,
			AchievedGBps: res[0].Achieved,
			LatencyNs:    res[0].Latency,
		}
	})
	return curve
}

// SweepPaths produces the per-path curve family for one mix — one panel
// of Fig. 4 (a–f), comparing distances at a fixed mix. Curves are swept
// concurrently and returned in path order.
func SweepPaths(paths []*memsim.Path, mix memsim.Mix, opts Options) []Curve {
	out := make([]Curve, len(paths))
	par.ForEach(len(paths), opts.Parallel, func(i int) {
		out[i] = LoadedLatency(paths[i], mix, opts)
	})
	return out
}
