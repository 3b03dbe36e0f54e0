package memsim

import (
	"math"
	"sync/atomic"
)

// Both solvers are pure functions of their flow sets: demand accumulation
// happens in solve-local state, never on the shared *Resource values, so
// SolveOpen and SolveClosed are safe for concurrent callers — including
// concurrent solves over the same paths and resources. The only remaining
// mutation points are configuration-time operations (Resource.Degrade),
// which must not overlap with active solves.

// overloadLatencyFactor stretches path latency when offered load exceeds
// capacity (MLC keeps injecting; queues stay pinned full).
const overloadLatencyFactor = 0.6

// OpenFlow is an offered-load traffic stream: "push bw GB/s of mix m at
// this placement and see what happens". MLC-style sweeps use this.
type OpenFlow struct {
	Placement Placement
	Mix       Mix
	Offered   float64 // GB/s
}

// ClosedFlow is a closed-loop traffic stream: a set of threads that each
// keep MLP memory accesses in flight and spend ThinkNs of CPU time per
// access that does not overlap with memory. Applications are closed
// flows; their throughput emerges from the latency fixed point.
type ClosedFlow struct {
	Placement   Placement
	Mix         Mix
	Threads     int
	MLP         float64 // outstanding accesses per thread
	AccessBytes float64 // bytes moved per access (64 for cacheline traffic)
	ThinkNs     float64 // non-overlapped CPU ns per access

	// FixedGBps, when positive, makes this a constant-demand flow (e.g.
	// a page-migration engine pinned at its rate limit): it offers this
	// bandwidth regardless of latency but still participates in the
	// fixed point, so closed flows sharing its devices re-throttle
	// around it. Threads/MLP/AccessBytes are ignored.
	FixedGBps float64
}

// FlowResult reports one flow's steady state.
type FlowResult struct {
	Achieved float64 // delivered bandwidth, GB/s
	Offered  float64 // offered bandwidth, GB/s
	Latency  float64 // loaded per-access latency, ns (placement-weighted)
}

// OpsPerSec converts a FlowResult to an operation rate given bytes/op.
func (fr FlowResult) OpsPerSec(bytesPerOp float64) float64 {
	if bytesPerOp <= 0 {
		return 0
	}
	return fr.Achieved / bytesPerOp * 1e9
}

// Utilization is a per-resource capacity-fraction snapshot after a solve;
// obs.InstrumentMemsim exports it as gauges.
type Utilization map[*Resource]float64

// SolveObserver receives a callback after every solver pass with the
// pass kind ("open" or "closed"), the flow count, and the final
// utilization snapshot. The obs package installs the standard
// implementation (counter + gauge families); see obs.InstrumentMemsim.
// Observers must be safe for concurrent invocation: parallel solvers
// call them from multiple goroutines.
type SolveObserver func(kind string, flows int, util Utilization)

// solveObserver is process-global because the solvers are package-level
// functions. It is an atomic pointer so it can be installed, swapped, or
// removed at any time — including while solves are in flight on other
// goroutines — without a data race.
var solveObserver atomic.Pointer[SolveObserver]

// SetSolveObserver installs (or, with nil, removes) the solve observer.
// Safe to call concurrently with active solves.
func SetSolveObserver(o SolveObserver) {
	if o == nil {
		solveObserver.Store(nil)
		return
	}
	solveObserver.Store(&o)
}

func observeSolve(kind string, flows int, util Utilization) {
	if p := solveObserver.Load(); p != nil {
		(*p)(kind, flows, util)
	}
}

// solveState is the per-solve scratch that used to live on *Resource: the
// resources touched by the flow set in first-encountered order, and their
// accumulated demand (as capacity fractions). Keeping it solve-local is
// what makes the solvers re-entrant.
type solveState struct {
	resources []*Resource
	demand    []float64
}

// indexOf locates r in the touched-resource list by linear scan: flow
// sets touch a handful of resources (a path is 1–3 stages), so a scan
// beats a map both in lookup cost and in per-solve allocation.
func (st *solveState) indexOf(r *Resource) int {
	for i, have := range st.resources {
		if have == r {
			return i
		}
	}
	return -1
}

func newSolveState(flows []OpenFlow) *solveState {
	st := &solveState{}
	st.init(flows)
	return st
}

// init collects the flow set's touched resources. resources/demand may be
// pre-seeded with (stack) backing arrays; init appends within capacity,
// so small solves can run without heap-allocating the state.
func (st *solveState) init(flows []OpenFlow) {
	for _, f := range flows {
		for _, wp := range f.Placement {
			for _, r := range wp.Path.Resources {
				if st.indexOf(r) < 0 {
					st.resources = append(st.resources, r)
					st.demand = append(st.demand, 0)
				}
			}
		}
	}
}

func (st *solveState) reset() {
	for i := range st.demand {
		st.demand[i] = 0
	}
}

// accumulate registers the flow set's offered load against each touched
// resource.
func (st *solveState) accumulate(flows []OpenFlow) {
	for _, f := range flows {
		for _, wp := range f.Placement.normalized() {
			for _, r := range wp.Path.Resources {
				st.demand[st.indexOf(r)] += r.demandFraction(f.Offered*wp.Weight, f.Mix)
			}
		}
	}
}

// utilization snapshots accumulated demand as the exported map form.
func (st *solveState) utilization() Utilization {
	util := make(Utilization, len(st.resources))
	for i, r := range st.resources {
		util[r] = st.demand[i]
	}
	return util
}

// demandOf reads a resource's accumulated demand without materializing
// the map snapshot; fixed-point inner passes evaluate flows through this.
func (st *solveState) demandOf(r *Resource) float64 {
	if i := st.indexOf(r); i >= 0 {
		return st.demand[i]
	}
	return 0
}

// SolveOpen resolves a set of offered-load flows sharing resources.
// Returned results are index-aligned with flows. Safe for concurrent use.
//
// Open solves are deliberately not memoized: a single pass is cheaper
// than encoding a cache key, and the sweeps that drive SolveOpen rarely
// repeat an offered load anyway. SolveClosed — hundreds of open passes
// per call — is where the cache earns its keep.
func SolveOpen(flows []OpenFlow) ([]FlowResult, Utilization) {
	results, util := solveOpen(flows)
	observeSolve("open", len(flows), util)
	return results, util
}

// SolveOpenResults is SolveOpen for callers that don't need the
// utilization snapshot: the exported map is only materialized when a
// solve observer is installed, so uninstrumented sweeps (e.g. the Fig 10
// serving-rate grid) pay no per-solve map allocation.
func SolveOpenResults(flows []OpenFlow) []FlowResult {
	// Small solves (a path is 1–3 stages; sweeps use 1–2 flows) fit in
	// stack buffers: only the returned results reach the heap.
	var (
		st     solveState
		resBuf [8]*Resource
		demBuf [8]float64
	)
	st.resources = resBuf[:0]
	st.demand = demBuf[:0]
	st.init(flows)
	results := make([]FlowResult, len(flows))
	solveOpenPass(&st, flows, results)
	if solveObserver.Load() != nil {
		observeSolve("open", len(flows), st.utilization())
	}
	return results
}

// solveOpen is SolveOpen without the observer callback or cache;
// SolveClosed's inner fixed-point iterations use solveOpenInto so a
// closed solve reports as one observation, not hundreds.
func solveOpen(flows []OpenFlow) ([]FlowResult, Utilization) {
	st := newSolveState(flows)
	results := make([]FlowResult, len(flows))
	util := solveOpenInto(st, flows, results)
	return results, util
}

// solveOpenInto runs one open-solve pass reusing the given state and
// results slice (both sized for flows), returning the exported map
// snapshot. Fixed-point iterations that don't need the map call
// solveOpenPass instead — the snapshot is the passes' only allocation.
func solveOpenInto(st *solveState, flows []OpenFlow, results []FlowResult) Utilization {
	solveOpenPass(st, flows, results)
	return st.utilization()
}

// solveOpenPass is one allocation-free open-solve pass over st.
func solveOpenPass(st *solveState, flows []OpenFlow, results []FlowResult) {
	st.reset()
	st.accumulate(flows)
	for i, f := range flows {
		results[i] = evalFlow(st, f.Placement, f.Mix, f.Offered)
	}
}

// evalFlow computes achieved bandwidth and placement-weighted latency for
// one flow against the solve's accumulated demand.
func evalFlow(st *solveState, pl Placement, m Mix, offered float64) FlowResult {
	var achieved, latSum, latWeight float64
	for _, wp := range pl.normalized() {
		sub := offered * wp.Weight
		lat := 0.0
		frac := 1.0
		for _, r := range wp.Path.Resources {
			u := st.demandOf(r)
			stage := r.latencyAt(u, m)
			if u > 1 {
				stage *= 1 + overloadLatencyFactor*(u-1)
				f := (1 / u) / (1 + r.OverloadRecession*(u-1))
				if f < frac {
					frac = f
				}
			}
			lat += stage
		}
		achieved += sub * frac
		latSum += wp.Weight * lat
		latWeight += wp.Weight
	}
	return FlowResult{Achieved: achieved, Offered: offered, Latency: latSum / latWeight}
}

// SolveClosed finds the throughput/latency fixed point for closed-loop
// flows sharing resources. Damped iteration; converges for every
// configuration the experiments use (guarded by iteration cap). Safe for
// concurrent use.
func SolveClosed(flows []ClosedFlow) ([]FlowResult, Utilization) {
	key := solveCacheKeyClosed(flows)
	if results, util, ok := solveCacheGet(key); ok {
		observeSolve("closed", len(flows), util)
		return results, util
	}
	results, util := solveClosed(flows)
	solveCachePut(key, results, util)
	observeSolve("closed", len(flows), util)
	return results, util
}

func solveClosed(flows []ClosedFlow) ([]FlowResult, Utilization) {
	n := len(flows)
	lat := make([]float64, n)
	for i, f := range flows {
		lat[i] = f.Placement.IdleLatency(f.Mix) + f.ThinkNs
		if lat[i] <= 0 {
			lat[i] = 1
		}
	}
	open := make([]OpenFlow, n)
	for i, f := range flows {
		open[i] = OpenFlow{Placement: f.Placement, Mix: f.Mix}
	}
	st := newSolveState(open)
	results := make([]FlowResult, n)
	const (
		iters = 500
		tol   = 1e-9
	)
	// Adaptive damping: the latency response g(L) is near-vertical at the
	// saturation cliff, so constant damping can 2-cycle. We track the
	// sign of each flow's update and halve the step whenever it flips,
	// which converges like bisection onto the unique fixed point (demand
	// is decreasing in latency; loaded latency is increasing in demand).
	step := make([]float64, n)
	lastDelta := make([]float64, n)
	for i := range step {
		step[i] = 0.5
	}
	for it := 0; it < iters; it++ {
		for i, f := range flows {
			demand := f.FixedGBps
			if demand <= 0 {
				demand = float64(f.Threads) * f.MLP * f.AccessBytes / lat[i]
			}
			open[i].Offered = demand
		}
		solveOpenPass(st, open, results)
		maxRel := 0.0
		for i, f := range flows {
			newLat := results[i].Latency + f.ThinkNs
			delta := newLat - lat[i]
			if delta*lastDelta[i] < 0 {
				step[i] *= 0.5
			}
			lastDelta[i] = delta
			rel := math.Abs(delta) / lat[i]
			if rel > maxRel {
				maxRel = rel
			}
			lat[i] += step[i] * delta
		}
		if maxRel < tol {
			break
		}
	}
	// Re-evaluate at the converged latencies so Achieved/Latency are a
	// consistent pair.
	for i, f := range flows {
		demand := f.FixedGBps
		if demand <= 0 {
			demand = float64(f.Threads) * f.MLP * f.AccessBytes / lat[i]
		}
		open[i].Offered = demand
	}
	util := solveOpenInto(st, open, results)
	// At the fixed point a closed flow's achieved bandwidth equals its
	// offered load (injection self-limits through latency), and
	// results[i].Latency is the memory-only loaded latency; callers add
	// their own ThinkNs when computing op costs.
	return results, util
}
