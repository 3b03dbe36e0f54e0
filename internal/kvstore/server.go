package kvstore

import (
	"fmt"
	"math/rand"

	"cxlsim/internal/fault"
	"cxlsim/internal/obs"
	"cxlsim/internal/sim"
	"cxlsim/internal/stats"
	"cxlsim/internal/tiering"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// OpSource produces the operation stream for a run; workload.YCSB and
// trace.Replayer both implement it.
type OpSource interface {
	Next() workload.Op
}

// Closed-loop client constants (§4.1.1 methodology).
const (
	clientThreads = 32     // YCSB client threads per node
	serverThreads = 7      // KeyDB server-threads
	networkRTTNs  = 10_000 // client↔server round trip over the 100 Gbps network

	// epochNs is the co-simulation epoch: Run's ticker period, Warm's
	// step, and RESPBackend's EpochFlows cadence.
	epochNs = 10e6
)

// RunConfig drives one YCSB run against a store (§4.1.1 methodology: a
// YCSB client on the baseline server issues closed-loop requests over the
// 100 Gbps network to a KeyDB instance with seven server-threads). The
// first Ops/4 operations warm up the run and are not measured.
type RunConfig struct {
	Mix  workload.YCSBMix
	Ops  int // measured operations (default 50_000)
	Seed int64

	// Source overrides the YCSB generator with an arbitrary operation
	// stream (e.g. a trace.Replayer); Mix is then only used for cache
	// warming.
	Source OpSource

	// Daemon, with its Tiers, enables kernel page placement during the
	// run (the Hot-Promote configuration).
	Daemon tiering.Daemon
	Tiers  tiering.Tiers

	// Metrics, when non-nil, publishes the run's instrumentation into
	// the registry: per-op counters (kvstore_ops_total), the latency
	// histograms (which Result then shares), sim-kernel counters, and
	// per-resource utilization gauges. Use a fresh registry per run —
	// families are get-or-create, so reusing one accumulates across
	// runs and later Results alias earlier histograms.
	Metrics *obs.Registry
	// Tracer, when non-nil, records a virtual-time timeline: one span
	// per measured op, tiering daemon tick spans, epoch utilization
	// counters, and sampled sim queue depth.
	Tracer *obs.Tracer
	// Windows, when non-nil, must wrap Metrics: the run flushes it on
	// every co-simulation epoch boundary and closes it at end of run, so
	// each window carries per-epoch rates, tail quantiles, hit ratio,
	// and degraded-node count. Requires Metrics.
	Windows *obs.Windows

	// Faults, when non-nil, installs the injector's schedule on the
	// run's engine: device parameters change mid-run, the store re-solves
	// on every transition, and the tiering daemon (if any) receives the
	// injector as its health source. The injector must be built against
	// the store's machine. Reset is called when the run ends so the
	// machine returns to its healthy calibration.
	//
	// The schedule's client policy (fault.Schedule.ClientPolicy) sets the
	// client timeout: an attempt whose service time exceeds it is
	// abandoned by the client (the server thread still burns the full
	// service time) and retried after an exponential backoff, up to the
	// policy's retry count. Without a timeout the healthy path is
	// unchanged.
	Faults *fault.Injector
}

func (rc *RunConfig) fill() {
	if rc.Ops == 0 {
		rc.Ops = 50_000
	}
	if rc.Ops < 1 {
		panic(fmt.Sprintf("kvstore: invalid run config %+v", *rc))
	}
}

// Result is one YCSB run's measurements.
type Result struct {
	Config              string
	Workload            string
	ThroughputOpsPerSec float64
	// Latency is the client-observed op latency (queue + service + RTT).
	Latency *stats.Histogram
	// ReadLatency covers reads only (Fig. 8(a)'s CDF).
	ReadLatency *stats.Histogram
	HitRate     float64
	Migrated    uint64 // total page-migration traffic, bytes

	// Fault-run accounting (all zero on healthy runs).
	Timeouts uint64 // attempts abandoned past the client timeout
	Retries  uint64 // re-issues after a timeout
	Failed   uint64 // ops abandoned for good after the last retry

	// Forwarded counts ops this node originated but another cluster node
	// owned and served (always zero outside RunCluster).
	Forwarded uint64
}

// Run executes one YCSB workload against the store, returning measured
// throughput and latency distributions. It is a discrete-event
// simulation: closed-loop clients feed a FIFO dispatch queue served by
// seven server threads whose service times come from the store's cost
// model under the current epoch's loaded memory latencies.
func Run(store *Store, alloc *vmm.Allocator, rc RunConfig) Result {
	rc.fill()
	eng := sim.NewEngine()
	sr := startRun(eng, store, alloc, &rc, nil, 0)
	for sr.rl.completed < sr.rl.totalOps && eng.Step() {
	}
	return sr.finish(eng.Now())
}

// startedRun is one node's in-flight run: Run drives it on a plain
// engine, RunCluster on one shard of a ShardedEngine.
type startedRun struct {
	rl     *runLoop
	ticker *sim.Ticker
}

// startRun wires observability, faults, and the closed-loop state machine
// onto eng and seeds the initial client window. cl/nodeID attach the loop
// to a cluster run (nil/0 for single-node Run). rc must already be filled.
func startRun(eng *sim.Engine, store *Store, alloc *vmm.Allocator, rc *RunConfig, cl *clusterRun, nodeID int) *startedRun {
	store.WarmCache(rc.Mix, 4*store.cfg.SimKeys, rc.Seed+991)
	var gen OpSource = rc.Source
	if gen == nil {
		gen = workload.NewYCSB(rc.Mix, uint64(store.cfg.SimKeys), rc.Seed)
	}

	res := Result{
		Workload:    rc.Mix.Name,
		Latency:     stats.NewLatencyHistogram(),
		ReadLatency: stats.NewLatencyHistogram(),
	}

	// Observability wiring. All sinks are optional; with both nil the
	// run is exactly the uninstrumented hot path.
	instrumented := rc.Metrics != nil || rc.Tracer != nil
	var (
		latH, readH *obs.Histogram
		opsC        *obs.CounterVec
	)
	if instrumented && cl == nil {
		// Kernel metrics are engine-scoped, and under RunCluster several
		// partitions share one engine (how many depends on the shard
		// count), so installing per-node observers would both misattribute
		// events and break shard-count invariance. Cluster runs report
		// kernel totals through ClusterResult.Events instead.
		eng.SetObserver(obs.NewKernelObserver(rc.Metrics, rc.Tracer))
	}
	if rc.Metrics != nil {
		latH = rc.Metrics.Histogram("kvstore_op_latency_ns",
			"client-observed op latency (queue + service + RTT), ns", stats.NewLatencyHistogram)
		readH = rc.Metrics.Histogram("kvstore_read_latency_ns",
			"client-observed read latency, ns", stats.NewLatencyHistogram)
		opsC = rc.Metrics.CounterVec("kvstore_ops_total", "operations completed, by kind", "kind")
		// Result shares the registry's histograms so exposition and the
		// returned measurements are one source of truth.
		res.Latency = latH.Unwrap()
		res.ReadLatency = readH.Unwrap()
		if rc.Tracer != nil {
			// Tail observations capture their span ids, and the tracer's
			// drop count surfaces as an obs_* self-metric.
			latH.EnableExemplars(0.99)
			readH.EnableExemplars(0.99)
			rc.Metrics.TrackTracer(rc.Tracer)
		}
	}
	// Windowed tiering health: per-epoch cache hit/miss deltas and the
	// degraded-node count, sampled on the epoch ticker below.
	var (
		hitsC, missC         *obs.Counter
		degG                 *obs.Gauge
		prevHits, prevMisses uint64
	)
	if rc.Metrics != nil && store.HasSpill() {
		store.InstrumentSpill(rc.Metrics)
	}
	if rc.Metrics != nil {
		hitsC = rc.Metrics.Counter("kvstore_cache_hits_total", "in-memory cache hits, accumulated per epoch")
		missC = rc.Metrics.Counter("kvstore_cache_misses_total", "in-memory cache misses, accumulated per epoch")
		degG = rc.Metrics.Gauge(obs.MetricTierDegradedNodes, "tier nodes currently degraded by active faults")
		prevHits, prevMisses = store.CacheCounts()
	}
	daemon := rc.Daemon
	if instrumented && daemon != nil {
		daemon = obs.InstrumentDaemon(daemon, rc.Metrics, rc.Tracer)
	}
	var pol fault.Resilience
	if rc.Faults != nil {
		pol = rc.Faults.Schedule().ClientPolicy()
		// Device parameters change inside the event loop: re-solve the
		// store's cached latencies on every transition and let the tiering
		// daemon route placement around degraded nodes. Reset on exit so
		// the machine leaves the run healthy.
		rc.Faults.Install(eng)
		rc.Faults.OnChange(func(sim.Time) { store.Resolve() })
		if store.HasSpill() {
			// SSD brownouts from the same schedule switch the durable
			// spill tier into shedding mode; healing triggers catch-up.
			rc.Faults.OnChange(func(sim.Time) {
				store.SetSpillHealthy(!rc.Faults.TargetDegraded("/ssd"))
			})
		}
		if rc.Metrics != nil {
			rc.Faults.Instrument(rc.Metrics)
		}
		if rc.Tracer != nil {
			rc.Faults.SetTracer(rc.Tracer)
		}
		if daemon != nil {
			daemon.SetHealth(rc.Faults)
		}
		rc.Tiers.Health = rc.Faults
	}

	rl := &runLoop{
		eng:        eng,
		store:      store,
		rc:         rc,
		gen:        gen,
		cl:         cl,
		nodeID:     nodeID,
		res:        &res,
		latH:       latH,
		readH:      readH,
		opsC:       opsC,
		free:       serverThreads,
		warmupOps:  rc.Ops / 4,
		totalOps:   rc.Ops + rc.Ops/4,
		inflight:   make([]pendingOp, serverThreads),
		slots:      make([]uint64, serverThreads),
		timeoutNs:  pol.TimeoutNs,
		backoffNs:  pol.BackoffNs,
		maxRetries: pol.MaxRetries,
	}
	for i := range rl.slots {
		rl.slots[i] = uint64(i)
	}
	// The retry and forwarding families read the run's own Result: only
	// the run's goroutine touches either until Run returns. They appear
	// exactly when the run can move them.
	if rc.Metrics != nil && pol.TimeoutNs > 0 {
		rc.Metrics.CounterFunc(obs.MetricKVTimeouts, "attempts abandoned past the client timeout",
			func() float64 { return float64(res.Timeouts) })
		rc.Metrics.CounterFunc(obs.MetricKVRetries, "op re-issues after a timeout",
			func() float64 { return float64(res.Retries) })
		rc.Metrics.CounterFunc(obs.MetricKVFailed, "ops abandoned after exhausting retries",
			func() float64 { return float64(res.Failed) })
		rl.backoffH = rc.Metrics.Histogram(obs.MetricKVBackoff,
			"retry backoff waits, ns", stats.NewLatencyHistogram)
	}
	if cl != nil {
		// Destination draws ride the node's own RNG: picks depend only on
		// this node's local event order, which the sharded engine keeps
		// invariant across shard counts.
		rl.destRng = rand.New(rand.NewSource(rc.Seed*31 + 12347))
		if rc.Metrics != nil {
			rc.Metrics.CounterFunc("kvstore_remote_forwarded_total",
				"ops forwarded to their owning node over the cluster fabric",
				func() float64 { return float64(res.Forwarded) })
		}
	}

	// Epoch ticker: resolve memory contention, run the tiering daemon,
	// age heat.
	ticker := eng.Every(epochNs, func(now sim.Time) {
		if daemon != nil {
			rep := daemon.Tick(now, store.Space(), alloc)
			res.Migrated += rep.TotalBytes()
			chargeMigration(store, rc.Tiers, rep)
		}
		store.EpochFlows(epochNs)
		store.Space().DecayHeat(0.5)
		if instrumented {
			util, peaks := store.EpochUtilization()
			obs.RecordUtilization(rc.Metrics, rc.Tracer, now, util, peaks)
		}
		if rc.Metrics != nil {
			hits, misses := store.CacheCounts()
			hitsC.Add(float64(hits - prevHits))
			missC.Add(float64(misses - prevMisses))
			prevHits, prevMisses = hits, misses
			degG.Set(float64(rc.Tiers.DegradedCount()))
		}
		// Seal windows last so the epoch's own metrics land in the
		// window ending here.
		rc.Windows.Flush(now)
	})

	for i := 0; i < clientThreads; i++ {
		p := pendingOp{op: gen.Next(), issue: 0, dest: nodeID}
		if cl != nil {
			p.dest = cl.pickDest(rl)
		}
		rl.queue = append(rl.queue, p)
	}
	rl.inflightOps = clientThreads
	rl.dispatch(0)
	return &startedRun{rl: rl, ticker: ticker}
}

// finish stops the epoch ticker, seals windows, resets faults, and
// computes the run's measurements as of virtual time end.
func (sr *startedRun) finish(end sim.Time) Result {
	rl := sr.rl
	rc := rl.rc
	sr.ticker.Stop()
	rc.Windows.Close(end)
	res := *rl.res
	elapsed := float64(end - rl.measureStart)
	if elapsed > 0 && rl.measuredOps > 0 {
		res.ThroughputOpsPerSec = float64(rl.measuredOps) / (elapsed / 1e9)
	}
	res.HitRate = rl.store.HitRate()
	if rc.Faults != nil {
		rc.Faults.Reset()
	}
	return res
}

type pendingOp struct {
	op    workload.Op
	issue sim.Time
	// attempt counts timeouts already suffered; abandoned marks a slot
	// whose client gave up — the completion event only frees the thread.
	attempt   int
	abandoned bool

	// Cluster routing (only meaningful under RunCluster). dest is the node
	// that owns and serves the op — equal to the originating node for local
	// ops, so the single-node zero value is always "local". fromRemote
	// marks an op that arrived over the fabric; origin is then the node
	// whose client is waiting on it.
	dest       int
	fromRemote bool
	origin     int
}

// runLoop is the closed-loop client/server state machine for one Run. It
// implements sim.Handler so op completions are scheduled through the
// engine's allocation-free handler path: the uint64 event argument names
// an in-flight slot (one per server thread) instead of a captured
// closure, and the dispatch queue is drained with a head index so
// steady-state operation recycles one backing array.
type runLoop struct {
	eng         *sim.Engine
	store       *Store
	rc          *RunConfig
	gen         OpSource
	res         *Result
	latH, readH *obs.Histogram
	opsC        *obs.CounterVec

	queue        []pendingOp
	head         int // queue[head:] is the live FIFO
	free         int // idle server threads
	warmupOps    int // completions before measurement starts
	totalOps     int
	completed    int
	measureStart sim.Time
	measuredOps  int

	// inflightOps counts generated-but-not-finally-completed ops: queued,
	// on a server thread, or waiting out a retry backoff. The generation
	// guard completed+inflightOps < totalOps reduces to the pre-retry
	// queue+busy expression when timeouts are disabled.
	inflightOps int

	inflight []pendingOp // per-server-thread op storage, indexed by slot
	slots    []uint64    // free slot stack

	// Client resilience (zero values = disabled, the healthy hot path).
	timeoutNs, backoffNs float64
	maxRetries           int
	backoffH             *obs.Histogram

	// Cluster wiring (nil/zero outside RunCluster; every check below is
	// guarded by cl != nil so the single-node hot path is unchanged).
	cl      *clusterRun
	nodeID  int
	destRng *rand.Rand
}

// HandleEvent implements sim.Handler: one server thread finishes the op
// in slot arg.
func (rl *runLoop) HandleEvent(now sim.Time, arg uint64) {
	p := rl.inflight[arg]
	rl.slots = append(rl.slots, arg)
	rl.free++
	if p.abandoned {
		// The client already timed this attempt out; the event only marks
		// the server thread free again after burning the service time.
		rl.dispatch(now)
		return
	}
	if rl.cl != nil && p.fromRemote {
		// Served on behalf of another node: ship the response home; the
		// origin does the completion accounting when it arrives.
		rl.cl.respond(rl, p, now)
		rl.dispatch(now)
		return
	}
	rl.completeOp(p, now)
}

// completeOp finishes one of this node's own ops: local completions call
// it straight from HandleEvent, remote completions when the response
// message arrives back from the serving node.
func (rl *runLoop) completeOp(p pendingOp, now sim.Time) {
	rc := rl.rc
	rl.completed++
	rl.inflightOps--
	if rl.completed == rl.warmupOps {
		rl.measureStart = now
	}
	if rl.opsC != nil {
		rl.opsC.With(p.op.Kind.String()).Inc()
	}
	if rl.completed > rl.warmupOps {
		rl.measuredOps++
		l := float64(now-p.issue) + networkRTTNs
		kind := p.op.Kind.String()
		spanID := rc.Tracer.SpanWithID("kvstore", kind, p.issue, now, nil)
		ex := obs.Exemplar{AtNs: float64(now), SpanID: spanID, Track: "kvstore", Span: kind}
		if rl.latH != nil {
			rl.latH.ObserveExemplar(l, ex)
		} else {
			rl.res.Latency.Add(l)
		}
		if p.op.Kind == workload.OpRead {
			if rl.readH != nil {
				rl.readH.ObserveExemplar(l, ex)
			} else {
				rl.res.ReadLatency.Add(l)
			}
		}
	}
	rl.generate(now)
	rl.dispatch(now)
}

// generate feeds the closed loop: one fresh op per final completion,
// until totalOps have been generated (completed+inflightOps counts every
// op generated so far).
func (rl *runLoop) generate(now sim.Time) {
	if rl.completed+rl.inflightOps < rl.totalOps {
		p := pendingOp{op: rl.gen.Next(), issue: now, dest: rl.nodeID}
		if rl.cl != nil {
			p.dest = rl.cl.pickDest(rl)
		}
		rl.queue = append(rl.queue, p)
		rl.inflightOps++
	}
}

func (rl *runLoop) dispatch(now sim.Time) {
	for rl.head < len(rl.queue) {
		p := rl.queue[rl.head]
		if rl.cl != nil && p.dest != rl.nodeID && !p.fromRemote {
			// Another node owns this op: forwarding needs the fabric, not a
			// server thread, so it leaves the queue even when all threads
			// are busy.
			rl.advanceHead()
			rl.cl.forward(rl, p, now)
			continue
		}
		if rl.free == 0 {
			break
		}
		rl.advanceHead()
		rl.free--
		svc := rl.store.ServiceTime(p.op)
		slot := rl.slots[len(rl.slots)-1]
		rl.slots = rl.slots[:len(rl.slots)-1]
		if rl.timeoutNs > 0 && svc > rl.timeoutNs {
			rl.clientTimeout(p, now, slot, svc)
			continue
		}
		rl.inflight[slot] = p
		rl.eng.AtHandler(now+sim.Time(svc), rl, slot)
	}
}

// advanceHead consumes the queue head. Once the consumed prefix is at
// least half the slice, the live tail moves down to the front in order:
// a saturated closed loop never drains its queue, and without compaction
// the backing array would grow to every op of the run. Every append to
// the queue is consumed here, so its capacity stays O(live ops).
func (rl *runLoop) advanceHead() {
	rl.head++
	if 2*rl.head >= len(rl.queue) {
		n := copy(rl.queue, rl.queue[rl.head:])
		rl.queue = rl.queue[:n]
		rl.head = 0
	}
}

// clientTimeout handles an attempt whose service time exceeds the client
// timeout: the server thread still burns the full service time (the work
// is wasted, which is what makes degraded devices expensive), while the
// client abandons at the deadline and either re-queues the op after an
// exponential backoff or gives up for good after its last retry.
func (rl *runLoop) clientTimeout(p pendingOp, now sim.Time, slot uint64, svc float64) {
	rl.inflight[slot] = pendingOp{abandoned: true}
	rl.eng.AtHandler(now+sim.Time(svc), rl, slot)
	if rl.cl != nil && p.fromRemote {
		// The deadline fires here (the serving node tracks the attempt),
		// but the waiting client lives on the origin: notify it one hop
		// after the deadline and let it do all retry bookkeeping.
		rl.cl.respondTimeout(rl, p, now)
		return
	}
	deadline := now + sim.Time(rl.timeoutNs)
	if !rl.retry(p, deadline) {
		rl.eng.At(deadline, rl.finishFailed)
	}
}

// remoteTimedOut runs on the origin when a timeout notification arrives
// back over the fabric: the same retry bookkeeping clientTimeout does for
// local ops, except now is already past the deadline (the hop was paid),
// so the failure or the backoff starts here. The retried op keeps its
// destination — the owner does not change — and clears fromRemote so
// dispatch re-forwards it.
func (rl *runLoop) remoteTimedOut(p pendingOp, now sim.Time) {
	p.fromRemote = false
	if !rl.retry(p, now) {
		rl.finishFailed(now)
	}
}

// retry is the client's bookkeeping for an attempt of p that timed out,
// with the client learning of it at virtual time at. It counts the
// timeout and, while p has retries left, requeues p after an exponential
// backoff from at. It reports false when p has exhausted its retries;
// the caller then fails the op.
func (rl *runLoop) retry(p pendingOp, at sim.Time) bool {
	rl.res.Timeouts++
	p.attempt++
	if p.attempt > rl.maxRetries {
		return false
	}
	rl.res.Retries++
	backoff := rl.backoffNs * float64(uint64(1)<<uint(p.attempt-1))
	if rl.backoffH != nil {
		rl.backoffH.Observe(backoff)
	}
	rl.eng.At(at+sim.Time(backoff), func(t sim.Time) { rl.requeue(p, t) })
	return true
}

func (rl *runLoop) requeue(p pendingOp, now sim.Time) {
	rl.queue = append(rl.queue, p)
	rl.dispatch(now)
}

// finishFailed finally completes an op that exhausted its retries. The
// failure still releases the closed-loop client, so a fresh op is
// generated; failed ops do not count toward measured throughput or the
// latency distributions.
func (rl *runLoop) finishFailed(now sim.Time) {
	rl.completed++
	rl.inflightOps--
	rl.res.Failed++
	if rl.completed == rl.warmupOps {
		rl.measureStart = now
	}
	rl.generate(now)
	rl.dispatch(now)
}

// chargeMigration books a tick's migration traffic against the store's
// epoch accumulators (reads from the source tier, writes to the target).
func chargeMigration(store *Store, tiers tiering.Tiers, rep tiering.Report) {
	if len(tiers.Fast) == 0 || len(tiers.Slow) == 0 {
		return
	}
	if rep.PromotedBytes > 0 {
		store.AddMigrationTraffic(tiers.Slow[0], tiers.Fast[0], float64(rep.PromotedBytes))
	}
	if rep.DemotedBytes > 0 {
		store.AddMigrationTraffic(tiers.Fast[0], tiers.Slow[0], float64(rep.DemotedBytes))
	}
}

// --- Table 1 configurations (§4.1.1) ---

// ConfigName identifies a Table-1 system configuration.
type ConfigName string

// The seven configurations of Table 1.
const (
	ConfMMEM       ConfigName = "MMEM"
	ConfMMEMSSD02  ConfigName = "MMEM-SSD-0.2"
	ConfMMEMSSD04  ConfigName = "MMEM-SSD-0.4"
	ConfInter31    ConfigName = "3:1"
	ConfInter11    ConfigName = "1:1"
	ConfInter13    ConfigName = "1:3"
	ConfHotPromote ConfigName = "Hot-Promote"
)

// Table1Configs lists the configurations in the paper's figure order.
func Table1Configs() []ConfigName {
	return []ConfigName{
		ConfMMEM, ConfMMEMSSD02, ConfMMEMSSD04,
		ConfInter31, ConfInter11, ConfInter13, ConfHotPromote,
	}
}

// Deployment is a fully-built Table-1 configuration ready to run.
type Deployment struct {
	Name    ConfigName
	Machine *topology.Machine
	Alloc   *vmm.Allocator
	Store   *Store
	Daemon  tiering.Daemon
	Tiers   tiering.Tiers

	warmDraws int // key-sampling RNG draws taken by Warm
}

// DeployOptions sizes a deployment.
type DeployOptions struct {
	WorkingSetBytes uint64 // default 512 GB (§4.1.1)
	SimKeys         int    // default 1<<20
	// SpillDir enables the durable on-disk spill tier (Flash
	// configurations only — MMEM-SSD-*; an error otherwise).
	SpillDir string
}

func (o *DeployOptions) fill() {
	if o.WorkingSetBytes == 0 {
		o.WorkingSetBytes = 512 << 30
	}
	if o.SimKeys == 0 {
		o.SimKeys = 1 << 20
	}
}

// Deploy builds one Table-1 configuration on a fresh testbed machine
// (SNC disabled, as in §4.1.1).
func Deploy(name ConfigName, opts DeployOptions) (*Deployment, error) {
	opts.fill()
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	dram := m.DRAMNodes(0) // server threads and memory on socket 0
	cxl := m.CXLNodes()
	allDRAM := append(append([]*topology.Node{}, dram...), m.DRAMNodes(1)...)

	cfg := StoreConfig{
		WorkingSetBytes: opts.WorkingSetBytes,
		SimKeys:         opts.SimKeys,
		MaxMemoryFrac:   1,
	}
	d := &Deployment{Name: name, Machine: m, Alloc: alloc}

	switch name {
	case ConfMMEM:
		cfg.Policy = vmm.Bind{Nodes: allDRAM}
	case ConfMMEMSSD02:
		cfg.MaxMemoryFrac, cfg.Flash = 0.8, true
		cfg.Policy = vmm.Bind{Nodes: allDRAM}
	case ConfMMEMSSD04:
		cfg.MaxMemoryFrac, cfg.Flash = 0.6, true
		cfg.Policy = vmm.Bind{Nodes: allDRAM}
	case ConfInter31:
		cfg.Policy = vmm.InterleaveNM{Top: allDRAM, Low: cxl, N: 3, M: 1}
	case ConfInter11:
		cfg.Policy = vmm.InterleaveNM{Top: allDRAM, Low: cxl, N: 1, M: 1}
	case ConfInter13:
		cfg.Policy = vmm.InterleaveNM{Top: allDRAM, Low: cxl, N: 1, M: 3}
	case ConfHotPromote:
		// §4.1.1: numactl distributes half the dataset to CXL and caps
		// main-memory usage at half the dataset size; the hot-page
		// promotion patches then migrate. We cap DRAM by reserving the
		// remainder before allocating.
		reserve := vmm.NewSpace(0)
		capBytes := opts.WorkingSetBytes / 2
		if err := reserveAllBut(alloc, reserve, dram[0], capBytes); err != nil {
			return nil, err
		}
		cfg.Policy = vmm.InterleaveNM{Top: dram[:1], Low: cxl, N: 1, M: 1}
		tiers := tiering.Tiers{Fast: dram[:1], Slow: cxl}
		d.Tiers = tiers
		d.Daemon = &tiering.HotPromote{
			Tiers: tiers,
			// 128 MB per 10 ms epoch ≈ a 12.8 GB/s migration ceiling,
			// the order of the patch's promote rate limit.
			RateLimitBytes: 128 << 20,
			AutoThreshold:  true,
		}
	default:
		return nil, fmt.Errorf("kvstore: unknown configuration %q", name)
	}

	if opts.SpillDir != "" {
		if !cfg.Flash {
			return nil, fmt.Errorf("kvstore: spill dir set but %s has no SSD tier (use an MMEM-SSD configuration)", name)
		}
		cfg.SpillDir = opts.SpillDir
	}
	st, err := NewStore(m, alloc, cfg)
	if err != nil {
		return nil, fmt.Errorf("kvstore: deploying %s: %w", name, err)
	}
	d.Store = st
	return d, nil
}

// reserveAllBut fills node n except for keep bytes, emulating a cgroup/
// numactl cap on usable main memory.
func reserveAllBut(alloc *vmm.Allocator, space *vmm.Space, n *topology.Node, keep uint64) error {
	if n.Capacity <= keep {
		return nil
	}
	return alloc.Alloc(space, n.Capacity-keep, vmm.Bind{Nodes: []*topology.Node{n}})
}

// RunConfigFor builds the standard run configuration for a deployment.
func (d *Deployment) RunConfigFor(mix workload.YCSBMix, seed int64) RunConfig {
	return RunConfig{Mix: mix, Seed: seed, Daemon: d.Daemon, Tiers: d.Tiers}
}

// RunConfigWithFaults is RunConfigFor plus a fault injector for the
// schedule (nil: none) on the deployment's machine. The injector is
// single-run: build a fresh deployment per faulted run.
func (d *Deployment) RunConfigWithFaults(mix workload.YCSBMix, seed int64, s *fault.Schedule) (RunConfig, error) {
	rc := d.RunConfigFor(mix, seed)
	if s == nil {
		return rc, nil
	}
	inj, err := fault.NewInjector(s, d.Machine)
	rc.Faults = inj
	return rc, err
}

// Warm drives the deployment to its steady state before measurement: it
// replays epochs of workload heat and daemon ticks without the DES, the
// way the paper lets each configuration run until placement converges
// before recording. Each epoch's keys are drawn as one batch
// (keyStream). No-op for daemon-less configurations.
func (d *Deployment) Warm(mix workload.YCSBMix, epochs, drawsPerEpoch int, seed int64) {
	if d.Daemon == nil {
		return
	}
	n := uint64(d.Store.cfg.SimKeys)
	keys := newKeyStream(mix, n, seed)
	space := d.Store.Space()
	// Each epoch's draws per page, applied in page order by TouchCounts.
	counts := make([]uint32, len(space.Pages))
	// Same heat weight per op as ServiceTime, so warm-phase heat and
	// measurement-phase heat are on one scale.
	weight := d.Store.depth + valueLines
	var now sim.Time
	for e := 0; e < epochs; e++ {
		now += epochNs
		for _, key := range keys.next(drawsPerEpoch) {
			counts[d.Store.pageOf(key%n)]++
		}
		space.TouchCounts(counts, weight)
		d.Daemon.Tick(now, space, d.Alloc)
		space.DecayHeat(0.5)
	}
	d.warmDraws += epochs * drawsPerEpoch
}

// WarmKey names the warm-up Warm drives for mix, so callers can warm
// once and share the result (SaveWarm/LoadWarm) across every mix with the
// same key. Warm keeps only the key stream: each op draws exactly one key
// unless it is an insert, the key generator is seeded independently of
// the op-kind draws, and the op kinds are thrown away. So two mixes with
// no inserts and the same Distribution warm bit-identically; a mix with
// inserts grows the keyspace and is its own key. Sharing also requires
// the same configuration, DeployOptions, epochs, draws and seed.
func WarmKey(mix workload.YCSBMix) workload.YCSBMix {
	if mix.Insert != 0 {
		return mix
	}
	return workload.YCSBMix{Distribution: mix.Distribution}
}

// WarmState is everything Warm changes in a deployment, in a form that
// holds no pointer into it: the heap's placement and heat, the
// allocator's per-node usage, the daemon's auto-adjusted threshold (its
// only state that outlives a tick), and how many draws Warm took from the
// store's key-sampling RNG.
type WarmState struct {
	placement *vmm.Placement
	used      []uint64
	threshold float64
	draws     int
}

// SaveWarm captures the deployment's warm state; call it after Warm and
// before Run. Nil for daemon-less deployments, which Warm leaves alone.
func (d *Deployment) SaveWarm() *WarmState {
	if d.Daemon == nil {
		return nil
	}
	return &WarmState{
		placement: d.Store.Space().SavePlacement(),
		used:      d.Alloc.Usage(),
		threshold: d.Daemon.(*tiering.HotPromote).Threshold,
		draws:     d.warmDraws,
	}
}

// LoadWarm puts a fresh deployment of the same configuration and options
// into the state w was saved from, exactly as if it had run the same
// Warm. No-op for a nil w.
func (d *Deployment) LoadWarm(w *WarmState) {
	if w == nil {
		return
	}
	d.Store.Space().LoadPlacement(w.placement, d.Machine)
	d.Alloc.SetUsage(w.used)
	d.Daemon.(*tiering.HotPromote).Threshold = w.threshold
	// math/rand sources cannot be copied: replay the draws instead.
	for i := 0; i < w.draws; i++ {
		d.Store.rng.Float64()
	}
	d.warmDraws = w.draws
}
