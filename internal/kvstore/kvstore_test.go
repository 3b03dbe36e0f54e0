package kvstore

import (
	"math"
	"testing"

	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// fastOpts keeps unit runs quick; benches use paper-scale defaults.
func fastOpts() DeployOptions {
	return DeployOptions{WorkingSetBytes: 512 << 30, SimKeys: 1 << 16}
}

func runConf(t *testing.T, name ConfigName, mix workload.YCSBMix, ops int) Result {
	t.Helper()
	d, err := Deploy(name, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	d.Warm(mix, 120, 100_000, 7)
	rc := d.RunConfigFor(mix, 42)
	rc.Ops = ops
	res := Run(d.Store, d.Alloc, rc)
	res.Config = string(name)
	return res
}

func TestDeployAllConfigs(t *testing.T) {
	for _, name := range Table1Configs() {
		if _, err := Deploy(name, fastOpts()); err != nil {
			t.Errorf("Deploy(%s): %v", name, err)
		}
	}
	if len(Table1Configs()) != 7 {
		t.Fatal("Table 1 has seven configurations")
	}
	if _, err := Deploy("bogus", fastOpts()); err == nil {
		t.Fatal("unknown config should error")
	}
}

func TestStoreConfigValidation(t *testing.T) {
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	bad := []StoreConfig{
		{SimKeys: 0, MaxMemoryFrac: 1},
		{SimKeys: 10, MaxMemoryFrac: 0},
		{SimKeys: 10, MaxMemoryFrac: 1.5},
		{SimKeys: 10, MaxMemoryFrac: 0.5, Flash: false}, // spill without flash
	}
	for i, cfg := range bad {
		if _, err := NewStore(m, alloc, cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Policy failure propagates.
	cfg := StoreConfig{SimKeys: 10, MaxMemoryFrac: 1, WorkingSetBytes: 2 << 40,
		Policy: vmm.Bind{Nodes: m.DRAMNodes(0)}}
	if _, err := NewStore(m, alloc, cfg); err == nil {
		t.Error("oversized alloc should error")
	}
}

func TestDefaultDepthAnchors(t *testing.T) {
	if d := DefaultDepth(100 << 30); d != 3 {
		t.Fatalf("depth(100GB) = %v, want 3", d)
	}
	if d := DefaultDepth(512 << 30); math.Abs(d-40) > 1e-9 {
		t.Fatalf("depth(512GB) = %v, want 40", d)
	}
	if DefaultDepth(1<<30) != 3 {
		t.Fatal("small heaps clamp to the 100GB anchor")
	}
	if DefaultDepth(256<<30) <= 3 || DefaultDepth(256<<30) >= 40 {
		t.Fatal("intermediate sizes should interpolate")
	}
}

// TestFig5Ordering checks the headline result of §4.1.2 on YCSB-A:
// MMEM ≥ Hot-Promote > interleaves (3:1 > 1:1 > 1:3) > SSD spill.
func TestFig5Ordering(t *testing.T) {
	const ops = 20_000
	mix := workload.YCSBA
	tp := map[ConfigName]float64{}
	for _, name := range Table1Configs() {
		tp[name] = runConf(t, name, mix, ops).ThroughputOpsPerSec
	}
	order := []ConfigName{ConfMMEM, ConfInter31, ConfInter11, ConfInter13}
	for i := 1; i < len(order); i++ {
		if tp[order[i]] >= tp[order[i-1]] {
			t.Errorf("expected %s (%f) > %s (%f)", order[i-1], tp[order[i-1]], order[i], tp[order[i]])
		}
	}
	if tp[ConfMMEMSSD02] >= tp[ConfInter13] {
		t.Errorf("SSD-0.2 (%f) should trail the worst interleave (%f)", tp[ConfMMEMSSD02], tp[ConfInter13])
	}
	if tp[ConfMMEMSSD04] >= tp[ConfMMEMSSD02] {
		t.Errorf("SSD-0.4 (%f) should trail SSD-0.2 (%f)", tp[ConfMMEMSSD04], tp[ConfMMEMSSD02])
	}
	if tp[ConfHotPromote] >= tp[ConfMMEM] {
		t.Errorf("Hot-Promote (%f) cannot beat pure MMEM (%f)", tp[ConfHotPromote], tp[ConfMMEM])
	}
}

// TestFig5Factors checks the slowdown factors the paper reports:
// interleaving 1.2–1.5×, SSD ≈1.8×, Hot-Promote ≈ MMEM.
func TestFig5Factors(t *testing.T) {
	const ops = 20_000
	mix := workload.YCSBA
	base := runConf(t, ConfMMEM, mix, ops).ThroughputOpsPerSec
	slowdown := func(name ConfigName) float64 {
		return base / runConf(t, name, mix, ops).ThroughputOpsPerSec
	}
	if s := slowdown(ConfInter31); s < 1.10 || s > 1.35 {
		t.Errorf("3:1 slowdown = %.2f, want ≈1.2", s)
	}
	if s := slowdown(ConfInter13); s < 1.35 || s > 1.70 {
		t.Errorf("1:3 slowdown = %.2f, want ≈1.5", s)
	}
	if s := slowdown(ConfMMEMSSD04); s < 1.5 || s > 2.2 {
		t.Errorf("SSD-0.4 slowdown = %.2f, want ≈1.8", s)
	}
	if s := slowdown(ConfHotPromote); s > 1.15 {
		t.Errorf("Hot-Promote slowdown = %.2f, want ≈1 (nearly as well as MMEM)", s)
	}
}

// TestFig5TailLatencyOrdering: Fig. 5(b) — tail latency tracks placement.
func TestFig5TailLatency(t *testing.T) {
	const ops = 20_000
	mmem := runConf(t, ConfMMEM, workload.YCSBA, ops)
	i13 := runConf(t, ConfInter13, workload.YCSBA, ops)
	ssd := runConf(t, ConfMMEMSSD04, workload.YCSBA, ops)
	if p99, mmemP99 := i13.Latency.Percentile(99)/1e6, mmem.Latency.Percentile(99)/1e6; p99 <= mmemP99 {
		t.Errorf("1:3 p99 (%.3fms) should exceed MMEM p99 (%.3fms)", p99, mmemP99)
	}
	if ssd.Latency.Max() <= i13.Latency.Max() {
		t.Errorf("SSD max latency should exceed interleave max (SSD hits add ~100µs)")
	}
}

// TestFig8CXLOnly reproduces §4.3: KeyDB bound entirely to CXL vs MMEM on
// a 100 GB working set — ≈12.5% lower throughput, 9–27% read-latency
// penalty.
func TestFig8CXLOnly(t *testing.T) {
	run := func(nodes []*topology.Node, m *topology.Machine, alloc *vmm.Allocator) Result {
		st, err := NewStore(m, alloc, StoreConfig{
			WorkingSetBytes: 100 << 30,
			SimKeys:         1 << 16,
			MaxMemoryFrac:   1,
			Policy:          vmm.Bind{Nodes: nodes},
		})
		if err != nil {
			t.Fatal(err)
		}
		return Run(st, alloc, RunConfig{Mix: workload.YCSBC, Ops: 20_000, Seed: 5})
	}
	mMachine := topology.Testbed()
	mmem := run(mMachine.DRAMNodes(0), mMachine, vmm.NewAllocator(mMachine))
	cMachine := topology.Testbed()
	cxl := run(cMachine.CXLNodes(), cMachine, vmm.NewAllocator(cMachine))

	drop := 1 - cxl.ThroughputOpsPerSec/mmem.ThroughputOpsPerSec
	if drop < 0.08 || drop > 0.18 {
		t.Errorf("CXL-only throughput drop = %.1f%%, want ≈12.5%%", drop*100)
	}
	penalty := cxl.ReadLatency.Percentile(50)/mmem.ReadLatency.Percentile(50) - 1
	if penalty < 0.05 || penalty > 0.30 {
		t.Errorf("CXL-only read latency penalty = %.1f%%, want within 9–27%%", penalty*100)
	}
}

func TestFlashHitRateAndSpill(t *testing.T) {
	d, err := Deploy(ConfMMEMSSD04, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rc := d.RunConfigFor(workload.YCSBC, 9)
	rc.Ops = 10_000
	res := Run(d.Store, d.Alloc, rc)
	if res.HitRate >= 1 {
		t.Fatal("SSD config must take some misses")
	}
	// Zipfian keeps the working set largely cached (§4.1.2).
	if res.HitRate < 0.85 {
		t.Fatalf("hit rate = %.3f, Zipfian should keep most accesses in memory", res.HitRate)
	}
}

func TestHotPromoteMigratesSomething(t *testing.T) {
	// Cold start (no Warm): the first measurement epochs must promote.
	d, err := Deploy(ConfHotPromote, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rc := d.RunConfigFor(workload.YCSBA, 11)
	rc.Ops = 20_000
	res := Run(d.Store, d.Alloc, rc)
	if res.Migrated == 0 {
		t.Fatal("Hot-Promote run migrated nothing")
	}
}

func TestHotPromoteQuiescesAfterWarm(t *testing.T) {
	// §4.1.2's flip side: once placement converged on a stable Zipfian
	// hot set, migration traffic must die down rather than burn the
	// rate limit forever.
	d, err := Deploy(ConfHotPromote, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	d.Warm(workload.YCSBA, 150, 100_000, 7)
	rc := d.RunConfigFor(workload.YCSBA, 11)
	rc.Ops = 20_000
	res := Run(d.Store, d.Alloc, rc)
	// Bound: well under one rate-limit budget (128 MB) per epoch.
	if res.Migrated > 256<<20 {
		t.Fatalf("converged run still migrated %d MB", res.Migrated>>20)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		d, err := Deploy(ConfInter11, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		rc := d.RunConfigFor(workload.YCSBB, 123)
		rc.Ops = 5_000
		return Run(d.Store, d.Alloc, rc)
	}
	a, b := run(), run()
	if a.ThroughputOpsPerSec != b.ThroughputOpsPerSec {
		t.Fatalf("non-deterministic throughput: %v vs %v", a.ThroughputOpsPerSec, b.ThroughputOpsPerSec)
	}
	if a.Latency.Percentile(99) != b.Latency.Percentile(99) {
		t.Fatal("non-deterministic latency")
	}
}

func TestAllWorkloadsRun(t *testing.T) {
	d, err := Deploy(ConfMMEM, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range workload.StandardMixes() {
		rc := d.RunConfigFor(mix, 3)
		rc.Ops = 2_000
		res := Run(d.Store, d.Alloc, rc)
		if res.ThroughputOpsPerSec <= 0 {
			t.Errorf("%s: zero throughput", mix.Name)
		}
		if res.Latency.Count() == 0 {
			t.Errorf("%s: no latency samples", mix.Name)
		}
	}
}

func TestBytesPerKeyAndPages(t *testing.T) {
	d, err := Deploy(ConfMMEM, DeployOptions{WorkingSetBytes: 1 << 30, SimKeys: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if bpk := d.Store.BytesPerKey(); bpk != float64(1<<20) {
		t.Fatalf("BytesPerKey = %v, want 1 MiB", bpk)
	}
	// All pages must be on DRAM for the MMEM config.
	for i := range d.Store.Space().Pages {
		if d.Store.Space().Pages[i].Node.Kind != topology.DRAM {
			t.Fatal("MMEM config placed a page off DRAM")
		}
	}
}

func TestInterleaveConfigPlacesOnCXL(t *testing.T) {
	d, err := Deploy(ConfInter13, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	share := d.Store.Space().NodeShare()
	cxlShare := 0.0
	for n, f := range share {
		if n.Kind == topology.CXL {
			cxlShare += f
		}
	}
	if math.Abs(cxlShare-0.75) > 0.02 {
		t.Fatalf("1:3 CXL share = %.3f, want 0.75", cxlShare)
	}
}

func TestRunConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative ops should panic")
		}
	}()
	rc := RunConfig{Mix: workload.YCSBC, Ops: -1}
	rc.fill()
}
