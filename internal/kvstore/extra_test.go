package kvstore

import (
	"testing"

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
	before := d.Store.Space().NodeShare()
	d.Warm(workload.YCSBA, 50, 10_000, 1)
	after := d.Store.Space().NodeShare()
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
