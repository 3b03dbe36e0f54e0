package kvstore

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"cxlsim/internal/memsim"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// fastOpts keeps unit runs quick; benches use paper-scale defaults.
func fastOpts() DeployOptions {
	return DeployOptions{WorkingSetBytes: 512 << 30, SimKeys: 1 << 16}
}

// nodeShare is the fraction of the space's pages on each node, by ID.
func nodeShare(s *vmm.Space) map[int]float64 {
	share := map[int]float64{}
	for i := range s.Pages {
		share[int(s.Pages[i].NodeID)] += 1 / float64(len(s.Pages))
	}
	return share
}

// TestDeployAllocBound: building the default 1:1 deployment, 512 GB in
// 262,144 pages of 2 MiB, allocates at most 1.35 times the bytes of its
// 16-byte page records. Per-page pointers, per-page placement slices or
// per-key state a daemon-less, Flash-less store never reads push it past
// the bound.
func TestDeployAllocBound(t *testing.T) {
	const pages = (512 << 30) / vmm.DefaultPageSize
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := Deploy(ConfInter11, DeployOptions{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(d.Store.Space().Pages); n != pages {
		t.Fatalf("deployment has %d pages, want %d", n, pages)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*pages*135/100)
	t.Logf("Deploy(%s) allocated %d bytes (bound %d)", ConfInter11, got, limit)
	if got > limit {
		t.Fatalf("Deploy(%s) allocated %d bytes, want at most %d", ConfInter11, got, limit)
	}
}

// BenchmarkDeploy times building a default-size deployment: the page
// table of a 512 GB working set and the store's per-key state.
func BenchmarkDeploy(b *testing.B) {
	for _, name := range []ConfigName{ConfInter11, ConfMMEMSSD04, ConfHotPromote} {
		b.Run(string(name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Deploy(name, DeployOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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

// ycsbSource hides a *workload.YCSB behind a distinct type, so Run takes
// the RunConfig.Source path instead of building its own generator.
type ycsbSource struct{ y *workload.YCSB }

func (s ycsbSource) Next() workload.Op { return s.y.Next() }

// constSource reads one key forever.
type constSource struct{}

func (constSource) Next() workload.Op { return workload.Op{Kind: workload.OpRead, Key: 7} }

// TestRunSource: a Source that replays the generator Run would build
// gives the same Result as the nil-Source run, and Run really draws from
// Source, so a constant-key stream gives a different one.
func TestRunSource(t *testing.T) {
	const seed = 123
	run := func(src OpSource) Result {
		d, err := Deploy(ConfInter11, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		rc := d.RunConfigFor(workload.YCSBA, seed)
		rc.Ops = 4_000
		rc.Source = src
		return Run(d.Store, d.Alloc, rc)
	}
	want := run(nil)
	if got := run(ycsbSource{workload.NewYCSB(workload.YCSBA, uint64(fastOpts().SimKeys), seed)}); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapped generator: %.1f ops/s, want %.1f (the nil-Source run)", got.ThroughputOpsPerSec, want.ThroughputOpsPerSec)
	}
	if got := run(constSource{}); reflect.DeepEqual(got, want) {
		t.Fatal("a constant-key Source gave the generator's Result: Run ignores Source")
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
		if d.Machine.Nodes[d.Store.Space().Pages[i].NodeID].Kind != topology.DRAM {
			t.Fatal("MMEM config placed a page off DRAM")
		}
	}
}

// TestServiceTimePricesMigratedPageFromRefresh: a page migrated onto a
// node that held none of the store's pages at the last EpochFlows is
// priced from that node's refreshed (loaded) latency, exactly as if the
// page had been there at the refresh, not from its idle latency.
func TestServiceTimePricesMigratedPageFromRefresh(t *testing.T) {
	// serviceTime deploys MMEM (every page on socket-0 DRAM), charges
	// migration traffic onto a CXL node, refreshes, and prices a read of
	// key 0 after moving key 0's pages onto that node before or after the
	// refresh.
	serviceTime := func(migrateFirst bool) (t0, loaded, idle float64) {
		d, err := Deploy(ConfMMEM, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		st, space := d.Store, d.Store.Space()
		src, cxl := d.Machine.Nodes[space.Pages[0].NodeID], d.Machine.CXLNodes()[0]
		migrate := func() {
			for p := 0; float64(p)*float64(space.PageSize) < st.keySpan; p++ {
				if err := d.Alloc.Migrate(space, p, cxl); err != nil {
					t.Fatal(err)
				}
			}
		}
		if migrateFirst {
			migrate()
		}
		st.AddMigrationTraffic(src, cxl, 15e9*epochNs/1e9)
		st.EpochFlows(epochNs)
		if !migrateFirst {
			migrate()
		}
		t0 = st.ServiceTime(workload.Op{Kind: workload.OpRead, Key: 0})
		return t0, st.nodeLatency[cxl.ID], st.pathTo(cxl).IdleLatency(memsim.ReadOnly)
	}
	want, loaded, idle := serviceTime(true)
	if !(loaded > idle) {
		t.Fatalf("migration traffic left the CXL node at %v ns, idle %v ns: the test cannot tell them apart", loaded, idle)
	}
	if got, _, _ := serviceTime(false); got != want {
		t.Fatalf("page migrated after the refresh priced at %v ns, want %v ns (its node's refreshed latency)", got, want)
	}
}

func TestInterleaveConfigPlacesOnCXL(t *testing.T) {
	d, err := Deploy(ConfInter13, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	share := nodeShare(d.Store.Space())
	cxlShare := 0.0
	for id, f := range share {
		if d.Machine.Nodes[id].Kind == topology.CXL {
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
