package kvstore

import (
	"fmt"

	"cxlsim/internal/fault"
	"cxlsim/internal/obs"
	"cxlsim/internal/par"
	"cxlsim/internal/sim"
	"cxlsim/internal/stats"
	"cxlsim/internal/topology"
	"cxlsim/internal/workload"
)

// ClusterConfig drives a multi-node YCSB run: N identical Table-1
// deployments, each with its own closed-loop client population, connected
// by the testbed fabric. A fraction of every node's ops is owned by a
// uniformly-chosen other node and must be forwarded one hop, served on
// the owner's server threads, and answered one hop back — the classic
// distributed-cache traffic pattern. The run executes on a
// sim.ShardedEngine with one logical partition per node; Shards picks how
// many OS threads execute it, and results are byte-identical at any
// shard count.
type ClusterConfig struct {
	Nodes  int // cluster size (≥ 1)
	Shards int // parallel shards (default 1; clamped to Nodes)

	Config ConfigName
	Deploy DeployOptions
	Mix    workload.YCSBMix

	OpsPerNode int   // measured ops per node (default 20_000)
	Seed       int64 // per-node seeds derive from this

	// RemoteFrac is the probability an op is owned by another node
	// (default 0.1). Each remote op crosses one topology.FabricHopNs hop
	// each way; that hop is also the sharded engine's conservative
	// lookahead, since it is the minimum cross-node latency.
	RemoteFrac float64

	// WarmEpochs/WarmDraws pre-converge each node's tiering placement
	// before measurement (Deployment.Warm); zero skips warming.
	WarmEpochs int
	WarmDraws  int

	// FaultSchedule, when non-nil, is installed independently on every
	// node (each node gets its own injector against its own machine) and
	// its client policy enables timeout/retry accounting cluster-wide.
	FaultSchedule *fault.Schedule

	// Metrics, when non-nil, receives the merged instrumentation of all
	// nodes: each node runs against a private registry and the shards are
	// folded in node order after the run (obs.Registry.Merge), so output
	// is identical at any shard count. sim_* kernel families are omitted
	// (they are engine-scoped and partitions share engines; see
	// ClusterResult.Events for the kernel total). Tracer, when non-nil,
	// records node 0's timeline only.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

func (cc *ClusterConfig) fill() error {
	if cc.Nodes < 1 {
		return fmt.Errorf("kvstore: cluster needs at least one node (got %d)", cc.Nodes)
	}
	if cc.Shards == 0 {
		cc.Shards = 1
	}
	if cc.Shards < 1 {
		return fmt.Errorf("kvstore: cluster needs at least one shard (got %d)", cc.Shards)
	}
	if cc.OpsPerNode == 0 {
		cc.OpsPerNode = 20_000
	}
	if cc.RemoteFrac == 0 {
		cc.RemoteFrac = 0.1
	}
	if cc.RemoteFrac < 0 || cc.RemoteFrac > 1 {
		return fmt.Errorf("kvstore: remote fraction %v outside [0,1]", cc.RemoteFrac)
	}
	return nil
}

// ClusterResult aggregates a cluster run.
type ClusterResult struct {
	PerNode []Result
	// Merged sums throughput and op counters across nodes and merges the
	// latency distributions; HitRate is the cluster-wide cache hit ratio.
	Merged Result
	EndNs  float64 // final epoch boundary, virtual ns
	Epochs uint64  // synchronization epochs executed
	Events uint64  // events fired across all shards
	Shards int     // shards actually used (after clamping)
}

// hop is the one-way fabric latency between cluster nodes.
const hop = sim.Time(topology.FabricHopNs)

// clusterRun is the shared fabric state linking the per-node run loops.
type clusterRun struct {
	se         *sim.ShardedEngine
	nodes      []*runLoop
	remoteFrac float64
}

// pickDest draws the owning node for a fresh op on rl's destination RNG:
// the node itself with probability 1-RemoteFrac, otherwise uniform over
// the other nodes. Draw order follows rl's local event order, which the
// sharded engine keeps invariant across shard counts.
func (cl *clusterRun) pickDest(rl *runLoop) int {
	n := len(cl.nodes)
	if n < 2 || cl.remoteFrac <= 0 || rl.destRng.Float64() >= cl.remoteFrac {
		return rl.nodeID
	}
	d := rl.destRng.Intn(n - 1)
	if d >= rl.nodeID {
		d++
	}
	return d
}

// forward ships an op to its owning node, one fabric hop away. The origin
// spends no server thread on it; the op queues on the owner and competes
// with the owner's local work for its threads.
func (cl *clusterRun) forward(rl *runLoop, p pendingOp, now sim.Time) {
	p.fromRemote = true
	p.origin = rl.nodeID
	rl.res.Forwarded++
	dst := p.dest
	pp := p
	cl.se.Send(rl.nodeID, dst, now+hop, func(t sim.Time) {
		drl := cl.nodes[dst]
		drl.queue = append(drl.queue, pp)
		drl.dispatch(t)
	})
}

// respond returns a served op to its origin, one hop back; the origin
// then does the full completion accounting (latency includes both hops
// plus the owner's queueing and service).
func (cl *clusterRun) respond(rl *runLoop, p pendingOp, now sim.Time) {
	origin := p.origin
	pp := p
	pp.fromRemote = false
	cl.se.Send(rl.nodeID, origin, now+hop, func(t sim.Time) {
		cl.nodes[origin].completeOp(pp, t)
	})
}

// respondTimeout notifies the origin that its remote attempt blew the
// client deadline: the serving node burns the thread (clientTimeout
// already scheduled that) and the origin learns one hop after the
// deadline, then runs the usual retry bookkeeping.
func (cl *clusterRun) respondTimeout(rl *runLoop, p pendingOp, now sim.Time) {
	origin := p.origin
	pp := p
	deadline := now + sim.Time(rl.timeoutNs)
	cl.se.Send(rl.nodeID, origin, deadline+hop, func(t sim.Time) {
		cl.nodes[origin].remoteTimedOut(pp, t)
	})
}

// RunCluster executes a multi-node YCSB run. Every node deploys the same
// Table-1 configuration on its own machine, warms independently, and runs
// its closed loop on its partition of a sharded engine; remote ops cross
// the fabric as described on ClusterConfig. All output — per-node
// results, the merged result, and the merged metrics registry — is
// byte-identical at any Shards setting.
func RunCluster(cc ClusterConfig) (*ClusterResult, error) {
	res, _, err := runCluster(cc)
	return res, err
}

// nodeSeed is node i's run seed; its warm-up uses nodeSeed+17.
func nodeSeed(seed int64, i int) int64 { return seed + 7919*int64(i) }

// runCluster is RunCluster, also returning the fabric state with every
// node's finished run loop.
func runCluster(cc ClusterConfig) (*ClusterResult, *clusterRun, error) {
	if err := cc.fill(); err != nil {
		return nil, nil, err
	}
	se := sim.NewSharded(cc.Nodes, cc.Shards, hop)
	cl := &clusterRun{
		se:         se,
		nodes:      make([]*runLoop, cc.Nodes),
		remoteFrac: cc.RemoteFrac,
	}

	// Nodes deploy and warm concurrently: each has its own machine and
	// seed, so the result does not depend on scheduling.
	deps := make([]*Deployment, cc.Nodes)
	err := par.ForEachErr(cc.Nodes, 0, func(i int) error {
		d, err := Deploy(cc.Config, cc.Deploy)
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		if cc.WarmEpochs > 0 && cc.WarmDraws > 0 {
			d.Warm(cc.Mix, cc.WarmEpochs, cc.WarmDraws, nodeSeed(cc.Seed, i)+17)
		}
		deps[i] = d
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	started := make([]*startedRun, cc.Nodes)
	stores := make([]*Store, cc.Nodes)
	regs := make([]*obs.Registry, cc.Nodes)
	for i, d := range deps {
		seed := nodeSeed(cc.Seed, i)
		rc, err := d.RunConfigWithFaults(cc.Mix, seed, cc.FaultSchedule)
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", i, err)
		}
		rc.Ops = cc.OpsPerNode
		if cc.Metrics != nil {
			regs[i] = obs.NewRegistry()
			rc.Metrics = regs[i]
		}
		if i == 0 {
			rc.Tracer = cc.Tracer
		}
		rc.fill()
		rcp := &rc
		sr := startRun(se.Partition(i), d.Store, d.Alloc, rcp, cl, i)
		started[i] = sr
		stores[i] = d.Store
		cl.nodes[i] = sr.rl
	}

	se.RunWhile(func() bool {
		for _, sr := range started {
			if sr.rl.completed < sr.rl.totalOps {
				return true
			}
		}
		return false
	})
	end := se.Now()

	res := &ClusterResult{
		PerNode: make([]Result, cc.Nodes),
		EndNs:   float64(end),
		Epochs:  se.Epochs(),
		Events:  se.Fired(),
		Shards:  se.Shards(),
	}
	merged := Result{
		Config:      string(cc.Config),
		Workload:    cc.Mix.Name,
		Latency:     stats.NewLatencyHistogram(),
		ReadLatency: stats.NewLatencyHistogram(),
	}
	var hits, misses uint64
	for i, sr := range started {
		r := sr.finish(end)
		r.Config = string(cc.Config)
		res.PerNode[i] = r
		merged.ThroughputOpsPerSec += r.ThroughputOpsPerSec
		merged.Latency.Merge(r.Latency)
		merged.ReadLatency.Merge(r.ReadLatency)
		merged.Migrated += r.Migrated
		merged.Timeouts += r.Timeouts
		merged.Retries += r.Retries
		merged.Failed += r.Failed
		merged.Forwarded += r.Forwarded
		h, m := stores[i].CacheCounts()
		hits += h
		misses += m
		if cc.Metrics != nil {
			cc.Metrics.Merge(regs[i])
		}
	}
	if hits+misses > 0 {
		merged.HitRate = float64(hits) / float64(hits+misses)
	}
	res.Merged = merged
	return res, cl, nil
}
