package kvstore

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cxlsim/internal/fault"
	"cxlsim/internal/obs"
	"cxlsim/internal/sim"
	"cxlsim/internal/workload"
)

func clusterFingerprint(t *testing.T, cc ClusterConfig) (string, *ClusterResult) {
	t.Helper()
	reg := obs.NewRegistry()
	cc.Metrics = reg
	res, err := RunCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end=%.4f epochs=%d events=%d\n", res.EndNs, res.Epochs, res.Events)
	for i, r := range res.PerNode {
		fmt.Fprintf(&b, "node %d: tput=%.6f p50=%.4f p99=%.4f hit=%.6f fwd=%d to=%d rt=%d fl=%d mig=%d\n",
			i, r.ThroughputOpsPerSec, r.Latency.Percentile(50), r.Latency.Percentile(99),
			r.HitRate, r.Forwarded, r.Timeouts, r.Retries, r.Failed, r.Migrated)
	}
	m := res.Merged
	fmt.Fprintf(&b, "merged: tput=%.6f p50=%.4f p99=%.4f hit=%.6f fwd=%d to=%d rt=%d fl=%d\n",
		m.ThroughputOpsPerSec, m.Latency.Percentile(50), m.Latency.Percentile(99),
		m.HitRate, m.Forwarded, m.Timeouts, m.Retries, m.Failed)
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b.Write(snap)
	b.WriteByte('\n')
	return b.String(), res
}

func smallCluster(nodes, shards int) ClusterConfig {
	return ClusterConfig{
		Nodes:      nodes,
		Shards:     shards,
		Config:     ConfInter11,
		Deploy:     DeployOptions{SimKeys: 1 << 12},
		Mix:        workload.YCSBB,
		OpsPerNode: 1500,
		Seed:       42,
		RemoteFrac: 0.2,
	}
}

// TestClusterByteIdenticalAcrossShards is the cluster-level determinism
// gate: per-node results, the merged result, and the full merged metrics
// snapshot must be byte-identical at every shard count. make race-shard
// additionally runs this under the race detector.
func TestClusterByteIdenticalAcrossShards(t *testing.T) {
	want, res := clusterFingerprint(t, smallCluster(4, 1))
	if res.Merged.Forwarded == 0 {
		t.Fatalf("no ops crossed the fabric; determinism test is vacuous")
	}
	for _, shards := range []int{2, 3, 4} {
		got, gres := clusterFingerprint(t, smallCluster(4, shards))
		if gres.Shards != shards {
			t.Fatalf("ran with %d shards, want %d", gres.Shards, shards)
		}
		if got != want {
			t.Fatalf("shards=%d diverged from shards=1:\n%s", shards, firstClusterDiff(want, got))
		}
	}
}

// TestClusterByteIdenticalUnderFaults repeats the invariant with a fault
// schedule active — device degradation, re-solves, and timeout/retry
// traffic must not break shard-count invariance.
func TestClusterByteIdenticalUnderFaults(t *testing.T) {
	sched := &fault.Schedule{
		Faults: []fault.Fault{
			{At: 2e6, Duration: 30e6, Kind: fault.LinkDegrade, Target: "cxl", Severity: 0.9},
		},
		Client: &fault.Resilience{TimeoutNs: 3e5, BackoffNs: 1e5, MaxRetries: 2},
	}
	base := smallCluster(3, 1)
	base.Config = ConfInter13
	base.FaultSchedule = sched
	want, res := clusterFingerprint(t, base)
	if res.Merged.Forwarded == 0 {
		t.Fatalf("no ops crossed the fabric; test is vacuous")
	}
	if res.Merged.Timeouts == 0 {
		t.Logf("warning: fault schedule produced no timeouts (still checks determinism)")
	}
	for _, shards := range []int{2, 3} {
		cc := smallCluster(3, shards)
		cc.Config = ConfInter13
		cc.FaultSchedule = sched
		got, _ := clusterFingerprint(t, cc)
		if got != want {
			t.Fatalf("faulted shards=%d diverged from shards=1:\n%s", shards, firstClusterDiff(want, got))
		}
	}
}

func TestClusterSingleNodeDegeneratesToLocal(t *testing.T) {
	cc := smallCluster(1, 1)
	res, err := RunCluster(cc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged.Forwarded != 0 {
		t.Fatalf("single-node cluster forwarded %d ops; all ops must be local", res.Merged.Forwarded)
	}
	if res.Merged.ThroughputOpsPerSec <= 0 {
		t.Fatalf("no throughput measured")
	}
}

func TestClusterConfigValidation(t *testing.T) {
	for name, cc := range map[string]ClusterConfig{
		"zero nodes":      {Nodes: 0, Config: ConfMMEM, Mix: workload.YCSBB},
		"negative shards": {Nodes: 2, Shards: -1, Config: ConfMMEM, Mix: workload.YCSBB},
		"bad remote frac": {Nodes: 2, RemoteFrac: 1.5, Config: ConfMMEM, Mix: workload.YCSBB},
	} {
		if _, err := RunCluster(cc); err == nil {
			t.Fatalf("%s: RunCluster accepted invalid config", name)
		}
	}
}

func firstClusterDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			la, lb := al[i], bl[i]
			for j := 0; j < len(la) && j < len(lb); j++ {
				if la[j] != lb[j] {
					lo := j - 40
					if lo < 0 {
						lo = 0
					}
					ha, hb := j+40, j+40
					if ha > len(la) {
						ha = len(la)
					}
					if hb > len(lb) {
						hb = len(lb)
					}
					return fmt.Sprintf("line %d col %d:\n…%s…\nvs\n…%s…", i, j, la[lo:ha], lb[lo:hb])
				}
			}
			return fmt.Sprintf("line %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

// TestDispatchQueueStaysBounded: a saturated closed loop never drains its
// dispatch queue, so the queue must compact as it goes. Its capacity is
// bounded by the ops that can be live at once — every client's op on a
// node, and in a cluster also the ops forwarded from the other nodes —
// not by the run's length. Retries requeue through the same queue.
func TestDispatchQueueStaysBounded(t *testing.T) {
	for _, ops := range []int{2_000, 8_000} {
		d, err := Deploy(ConfInter11, DeployOptions{SimKeys: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, cxlFaultSchedule())
		if err != nil {
			t.Fatal(err)
		}
		rc.Ops = ops
		rc.fill()
		eng := sim.NewEngine()
		sr := startRun(eng, d.Store, d.Alloc, &rc, nil, 0)
		for sr.rl.completed < sr.rl.totalOps && eng.Step() {
		}
		if res := sr.finish(eng.Now()); res.Retries == 0 {
			t.Fatal("fault run requeued no retries; the requeue path is untested")
		}
		if c := cap(sr.rl.queue); c > 4*clientThreads {
			t.Errorf("single node, %d ops: queue capacity %d, want ≤ %d", ops, c, 4*clientThreads)
		}

		cc := smallCluster(3, 1)
		cc.OpsPerNode = ops
		res, cl, err := runCluster(cc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Merged.Forwarded == 0 {
			t.Fatal("no ops crossed the fabric; the forward path is untested")
		}
		for i, rl := range cl.nodes {
			if c := cap(rl.queue); c > 4*cc.Nodes*clientThreads {
				t.Errorf("cluster node %d, %d ops: queue capacity %d, want ≤ %d", i, ops, c, 4*cc.Nodes*clientThreads)
			}
		}
	}
}
