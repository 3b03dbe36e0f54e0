package tiering

import (
	"slices"
	"testing"

	"cxlsim/internal/sim"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// harness builds a 50/50 DRAM+CXL space like the paper's Hot-Promote
// configuration (Table 1): total MMEM is capped at half the dataset.
type harness struct {
	m     *topology.Machine
	alloc *vmm.Allocator
	space *vmm.Space
	tiers Tiers
	now   sim.Time
}

const harnessPages = 512

func newHarness(t *testing.T) *harness {
	t.Helper()
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	space := vmm.NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	cxl := m.CXLNodes()[0]

	// Cap DRAM at half the dataset by pre-filling the rest.
	fill := vmm.NewSpace(0)
	reserve := dram.Capacity - uint64(harnessPages/2)*vmm.DefaultPageSize
	if err := alloc.Alloc(fill, reserve, vmm.Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	pol := vmm.InterleaveNM{Top: []*topology.Node{dram}, Low: []*topology.Node{cxl}, N: 1, M: 1}
	if err := alloc.Alloc(space, harnessPages*vmm.DefaultPageSize, pol); err != nil {
		t.Fatal(err)
	}
	return &harness{
		m: m, alloc: alloc, space: space,
		tiers: Tiers{Fast: []*topology.Node{dram}, Slow: []*topology.Node{cxl}},
	}
}

// epoch simulates accesses from gen and runs the daemon once.
func (h *harness) epoch(gen workload.Generator, accesses int, d Daemon) Report {
	h.now += sim.Millisecond
	for i := 0; i < accesses; i++ {
		page := int(gen.Next()) % len(h.space.Pages)
		h.space.Touch(page, 1)
	}
	rep := d.Tick(h.now, h.space, h.alloc)
	h.space.DecayHeat(0.5)
	return rep
}

// fastHeatShare is the fraction of the space's heat mass on fast-tier
// pages.
func (h *harness) fastHeatShare(t *testing.T) float64 {
	t.Helper()
	fast, total := 0.0, 0.0
	for i := range h.space.Pages {
		heat := h.space.Heat(i)
		if slices.Contains(h.tiers.Fast, h.m.Node(int(h.space.Pages[i].NodeID))) {
			fast += heat
		}
		total += heat
	}
	if total == 0 {
		t.Fatal("no page holds heat")
	}
	return fast / total
}

func TestHotPromoteConvergesOnZipfian(t *testing.T) {
	// §4.1.2: with Zipfian access, Hot-Promote migrates the hot keys to
	// MMEM and performs nearly as well as pure MMEM. The testable core:
	// the fast tier ends up serving the large majority of accesses.
	h := newHarness(t)
	gen := workload.NewZipfian(harnessPages, 42)
	d := &HotPromote{
		Tiers:          h.tiers,
		RateLimitBytes: 64 * vmm.DefaultPageSize,
		AutoThreshold:  true,
	}
	for e := 0; e < 60; e++ {
		h.epoch(gen, 20000, d)
	}
	if share := h.fastHeatShare(t); share < 0.80 {
		t.Fatalf("fast-tier heat share after convergence = %.2f, want ≥0.80", share)
	}
}

func TestHotPromoteThrashesOnUniform(t *testing.T) {
	// §4.2.2: on the low-locality Spark workload the auto threshold
	// "falls short" — promotion churns without improving placement.
	h := newHarness(t)
	gen := workload.NewUniform(harnessPages, 43)
	d := &HotPromote{
		Tiers:          h.tiers,
		RateLimitBytes: 64 * vmm.DefaultPageSize,
		AutoThreshold:  true,
	}
	var churn uint64
	const epochs = 40
	for e := 0; e < epochs; e++ {
		churn += h.epoch(gen, 20000, d).TotalBytes()
	}
	// Sustained churn: a large share of the cumulative rate-limit budget
	// is burned on migrations...
	if churn < uint64(epochs)*16*vmm.DefaultPageSize {
		t.Fatalf("uniform-access churn = %d bytes, expected sustained thrashing", churn)
	}
	// ...while placement barely improves over the 50/50 capacity split.
	if share := h.fastHeatShare(t); share > 0.70 {
		t.Fatalf("fast heat share = %.2f on uniform access; thrashing should not beat ≈0.5 by much", share)
	}
}

func TestHotPromoteRespectsRateLimit(t *testing.T) {
	h := newHarness(t)
	gen := workload.NewZipfian(harnessPages, 44)
	limit := uint64(8 * vmm.DefaultPageSize)
	d := &HotPromote{Tiers: h.tiers, RateLimitBytes: limit}
	for e := 0; e < 10; e++ {
		rep := h.epoch(gen, 20000, d)
		if rep.TotalBytes() > limit {
			t.Fatalf("tick migrated %d bytes, limit %d", rep.TotalBytes(), limit)
		}
	}
}

func TestHotPromoteAutoThresholdMoves(t *testing.T) {
	h := newHarness(t)
	gen := workload.NewZipfian(harnessPages, 45)
	d := &HotPromote{Tiers: h.tiers, RateLimitBytes: 4 * vmm.DefaultPageSize, AutoThreshold: true}
	h.epoch(gen, 50000, d)
	raised := d.Threshold
	if raised <= 1 {
		t.Fatalf("threshold should rise when promotion saturates the limit; got %v", raised)
	}
	// Starve it: drop all heat → no candidates → threshold relaxes.
	h.space.DecayHeat(0)
	for e := 0; e < 3; e++ {
		d.Tick(h.now, h.space, h.alloc)
	}
	if d.Threshold >= raised {
		t.Fatalf("threshold should relax under low promotion; %v -> %v", raised, d.Threshold)
	}
}

func TestHotPromoteDemotesToMakeRoom(t *testing.T) {
	h := newHarness(t)
	// Heat up only CXL pages so every promotion needs a demotion (the
	// fast tier is exactly full: capacity == half the dataset).
	for i := range h.space.Pages {
		if slices.Contains(h.tiers.Slow, h.m.Node(int(h.space.Pages[i].NodeID))) {
			h.space.Touch(i, 100)
		}
	}
	d := &HotPromote{Tiers: h.tiers, RateLimitBytes: 64 * vmm.DefaultPageSize}
	rep := d.Tick(1, h.space, h.alloc)
	if rep.PromotedPages == 0 {
		t.Fatal("no promotions despite hot slow pages")
	}
	if rep.DemotedPages == 0 {
		t.Fatal("promotions into a full fast tier require demotions")
	}
}

func TestReportTotals(t *testing.T) {
	r := Report{PromotedBytes: 10, DemotedBytes: 5}
	if r.TotalBytes() != 15 {
		t.Fatal("TotalBytes wrong")
	}
}

func TestHotPromoteNameAndDefaults(t *testing.T) {
	d := &HotPromote{Tiers: Tiers{}}
	if d.Name() != "hot-promote" {
		t.Fatal("name")
	}
	// Tick with zero threshold defaults to DefaultHotThreshold and does not
	// panic on an empty space.
	d.Tick(0, vmm.NewSpace(0), vmm.NewAllocator(topology.Testbed()))
	if d.Threshold != DefaultHotThreshold {
		t.Fatalf("default threshold = %v, want %v", d.Threshold, DefaultHotThreshold)
	}
}
