package kvstore

import (
	"testing"

	"cxlsim/internal/fault"
	"cxlsim/internal/obs"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// TestYCSBDInsertsOnSSDConfig: the latest-distribution workload keeps
// reading fresh inserts; with Flash, fresh inserts are resident so the
// hit rate stays high despite the churn.
func TestYCSBDOnFlash(t *testing.T) {
	d, err := Deploy(ConfMMEMSSD02, DeployOptions{SimKeys: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	rc := d.RunConfigFor(workload.YCSBD, 13)
	rc.Ops = 10_000
	res := Run(d.Store, d.Alloc, rc)
	if res.HitRate < 0.8 {
		t.Fatalf("YCSB-D hit rate = %.3f; fresh inserts should stay resident", res.HitRate)
	}
	if res.ThroughputOpsPerSec <= 0 {
		t.Fatal("no throughput")
	}
}

// TestDegradedCXLSlowsCXLBoundStore: failure injection propagates through
// the store's service times.
func TestDegradedCXLSlowsCXLBoundStore(t *testing.T) {
	run := func(degrade bool) float64 {
		m := topology.Testbed()
		if degrade {
			for _, n := range m.CXLNodes() {
				n.Resource().Degrade(0.5, 2)
			}
		}
		alloc := vmm.NewAllocator(m)
		st, err := NewStore(m, alloc, StoreConfig{
			WorkingSetBytes: 100 << 30, SimKeys: 1 << 14, MaxMemoryFrac: 1,
			Policy: vmm.Bind{Nodes: m.CXLNodes()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return Run(st, alloc, RunConfig{Mix: workload.YCSBC, Ops: 8_000, Seed: 5}).ThroughputOpsPerSec
	}
	healthy, degraded := run(false), run(true)
	if degraded >= healthy {
		t.Fatalf("degraded CXL throughput %v should trail healthy %v", degraded, healthy)
	}
}

// TestWarmIdempotentForStaticConfigs: Warm is a no-op without a daemon.
func TestWarmIdempotentForStaticConfigs(t *testing.T) {
	d, err := Deploy(ConfInter11, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	before := nodeShare(d.Store.Space())
	d.Warm(workload.YCSBA, 50, 10_000, 1)
	after := nodeShare(d.Store.Space())
	for n, f := range before {
		if after[n] != f {
			t.Fatal("Warm moved pages without a daemon")
		}
	}
}

func TestResultP99Accessor(t *testing.T) {
	d, err := Deploy(ConfMMEM, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rc := d.RunConfigFor(workload.YCSBC, 3)
	rc.Ops = 2_000
	res := Run(d.Store, d.Alloc, rc)
	if p99Ms := res.Latency.Percentile(99) / 1e6; p99Ms <= 0 {
		t.Fatalf("p99 = %v ms, want positive", p99Ms)
	}
}

// TestInstrumentedDaemonEvacuatesDegradedNode: a fault run with metrics
// wraps the Hot-Promote daemon in obs.InstrumentDaemon. The wrapper must
// still carry the fault injector's health, so pages leave the degraded
// CXL node exactly as they do in an uninstrumented run.
func TestInstrumentedDaemonEvacuatesDegradedNode(t *testing.T) {
	degraded := &fault.Schedule{Faults: []fault.Fault{
		{At: 0, Duration: 1e9, Kind: fault.LinkDegrade, Target: "/cxl0", Severity: 0.7},
	}}
	// cxl0Pages runs Hot-Promote under sched and counts the pages left on
	// the first CXL node; a non-nil reg instruments the daemon.
	cxl0Pages := func(sched *fault.Schedule, reg *obs.Registry) int {
		d, err := Deploy(ConfHotPromote, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, sched)
		if err != nil {
			t.Fatal(err)
		}
		rc.Ops = 20_000
		rc.Metrics = reg
		Run(d.Store, d.Alloc, rc)
		n := 0
		for i := range d.Store.Space().Pages {
			if int(d.Store.Space().Pages[i].NodeID) == d.Tiers.Slow[0].ID {
				n++
			}
		}
		return n
	}
	healthy := cxl0Pages(nil, obs.NewRegistry())
	wrapped := cxl0Pages(degraded, obs.NewRegistry())
	plain := cxl0Pages(degraded, nil)
	if wrapped >= healthy {
		t.Fatalf("instrumented daemon left %d pages on the degraded node, %d in a healthy run; it lost its health source", wrapped, healthy)
	}
	if wrapped != plain {
		t.Fatalf("instrumented daemon left %d pages on the degraded node, the bare daemon %d", wrapped, plain)
	}
}
