package llm

import (
	"fmt"
	"math/rand"

	"cxlsim/internal/sim"
	"cxlsim/internal/stats"
	"cxlsim/internal/topology"
)

// FleetConfig drives a multi-instance serving simulation: M LightLLM
// instances (each the §5.1 stack at a fixed policy and backend count)
// behind independent request arrival streams, connected by the testbed
// fabric. Requests arrive with exponential gaps whose mean is the mean
// request service time, so each instance is offered ~100% load and
// shedding actually engages. An instance whose decode backlog exceeds 4×
// the mean service time forwards an arriving request one
// topology.FabricHopNs hop to its ring neighbor — LightLLM's router-level
// load shedding — and the neighbor serves it regardless of its own
// backlog (requests forward at most once, so there is no ping-pong). The
// run executes on a sim.ShardedEngine with one logical partition per
// instance and the hop as its lookahead; results are byte-identical at
// any Shards setting.
type FleetConfig struct {
	Instances int // fleet size (≥ 1)
	Shards    int // parallel shards (default 1; clamped to Instances)

	Policy   Policy // memory placement for every instance
	Backends int    // CPU inference backends per instance (default 1)

	RequestsPerInstance int   // arrivals per instance (default 1000)
	Seed                int64 // per-instance streams derive from this
}

// InstanceStats is one instance's tally.
type InstanceStats struct {
	Served       int // requests decoded here (local + forwarded-in)
	ForwardedOut int // local arrivals shed to the ring neighbor
	ForwardedIn  int // shed requests accepted from the neighbor
	Latency      *stats.Histogram
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	PerInstance []InstanceStats
	Served      int
	Forwarded   int
	Latency     *stats.Histogram // merged across instances
	EndNs       float64
	Epochs      uint64
	Shards      int
}

// hop is the one-way fabric latency between fleet instances.
const hop = sim.Time(topology.FabricHopNs)

type fleet struct {
	se        *sim.ShardedEngine
	instances []*fleetInstance
	tokenNs   float64
	// meanSvcNs is the mean request service time: the mean arrival gap,
	// and a quarter of the backlog beyond which arrivals are shed.
	meanSvcNs float64
}

type fleetInstance struct {
	f         *fleet
	id        int
	rng       *rand.Rand
	remaining int
	busyUntil sim.Time
	stats     InstanceStats
}

// reqTokens draws a request's decode length on the serving instance's
// RNG: 16–127 tokens, mean ≈ 71.5.
func (in *fleetInstance) reqTokens() int { return 16 + in.rng.Intn(112) }

// arrive is the instance's self-scheduling arrival chain.
func (in *fleetInstance) arrive(now sim.Time) {
	if in.remaining <= 0 {
		return
	}
	in.remaining--
	in.admit(now, now, false)
	gap := sim.Time(in.rng.ExpFloat64() * in.f.meanSvcNs)
	in.f.se.Partition(in.id).At(now+1+gap, in.arrive)
}

// admit either serves a request on this instance's decode pipeline or,
// for a local arrival over the backlog threshold, sheds it one hop to the
// ring neighbor. issue is the original arrival time, so shed requests pay
// the hop inside their measured latency.
func (in *fleetInstance) admit(now, issue sim.Time, forwarded bool) {
	f := in.f
	if !forwarded && len(f.instances) > 1 && float64(in.busyUntil-now) > 4*f.meanSvcNs {
		dst := (in.id + 1) % len(f.instances)
		in.stats.ForwardedOut++
		f.se.Send(in.id, dst, now+hop, func(t sim.Time) {
			d := f.instances[dst]
			d.stats.ForwardedIn++
			d.admit(t, issue, true)
		})
		return
	}
	svc := sim.Time(float64(in.reqTokens()) * f.tokenNs)
	start := now
	if in.busyUntil > start {
		start = in.busyUntil
	}
	in.busyUntil = start + svc
	in.stats.Served++
	in.stats.Latency.Add(float64(in.busyUntil - issue))
}

// ServeFleet runs the fleet to completion: every instance's arrival
// stream drains, every shed request lands, and the per-instance and
// merged tallies come back. Byte-identical at any Shards setting.
func ServeFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Instances < 1 {
		return nil, fmt.Errorf("llm: fleet needs at least one instance (got %d)", cfg.Instances)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("llm: fleet needs at least one shard (got %d)", cfg.Shards)
	}
	if cfg.Backends == 0 {
		cfg.Backends = 1
	}
	if cfg.Backends < 1 {
		return nil, fmt.Errorf("llm: invalid backend count %d", cfg.Backends)
	}
	if cfg.Policy.Name == "" {
		cfg.Policy = Fig10Policies()[0]
	}
	if cfg.RequestsPerInstance == 0 {
		cfg.RequestsPerInstance = 1000
	}

	// Every instance runs the same stack, so one steady-state solve fixes
	// the shared per-token decode time.
	sp := NewCluster().ServingRate(cfg.Policy, cfg.Backends)
	tokenNs := 1e9 / sp.TokensPerSec

	f := &fleet{
		se:        sim.NewSharded(cfg.Instances, cfg.Shards, hop),
		instances: make([]*fleetInstance, cfg.Instances),
		tokenNs:   tokenNs,
		meanSvcNs: 71.5 * tokenNs,
	}
	for i := range f.instances {
		in := &fleetInstance{
			f:         f,
			id:        i,
			rng:       rand.New(rand.NewSource(cfg.Seed + 104729*int64(i))),
			remaining: cfg.RequestsPerInstance,
		}
		in.stats.Latency = stats.NewLatencyHistogram()
		f.instances[i] = in
		f.se.Partition(i).At(sim.Time(i)/8, in.arrive)
	}
	end := f.se.Run()

	res := &FleetResult{
		PerInstance: make([]InstanceStats, cfg.Instances),
		Latency:     stats.NewLatencyHistogram(),
		EndNs:       float64(end),
		Epochs:      f.se.Epochs(),
		Shards:      f.se.Shards(),
	}
	for i, in := range f.instances {
		res.PerInstance[i] = in.stats
		res.Served += in.stats.Served
		res.Forwarded += in.stats.ForwardedOut
		res.Latency.Merge(in.stats.Latency)
	}
	return res, nil
}
