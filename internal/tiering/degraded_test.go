package tiering

import (
	"testing"

	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
)

// fakeHealth marks an explicit set of nodes degraded.
type fakeHealth map[*topology.Node]bool

func (f fakeHealth) Degraded(n *topology.Node) bool { return f[n] }

func TestPickDstSkipsDegraded(t *testing.T) {
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	cxl0, cxl1 := m.CXLNodes()[0], m.CXLNodes()[1]
	tiers := Tiers{
		Slow:   []*topology.Node{cxl0, cxl1},
		Health: fakeHealth{cxl0: true},
	}
	if got := tiers.pickDst(tiers.Slow, alloc, vmm.DefaultPageSize); got != cxl1 {
		t.Fatalf("pickDst chose %v, want the healthy cxl1", got)
	}
	tiers.Health = fakeHealth{cxl0: true, cxl1: true}
	if got := tiers.pickDst(tiers.Slow, alloc, vmm.DefaultPageSize); got != nil {
		t.Fatalf("pickDst chose %v with every slow node degraded, want nil (skip migration)", got)
	}
	// Nil health: every node is healthy, first fit wins.
	tiers.Health = nil
	if got := tiers.pickDst(tiers.Slow, alloc, vmm.DefaultPageSize); got != cxl0 {
		t.Fatalf("pickDst chose %v with nil health, want cxl0", got)
	}
}

// Regression: when promotion has to demote to make room, a degraded
// preferred CXL target must divert the demotions to the alternate slow
// node and never receive pages itself.
func TestHotPromoteDemotionFallsBackToAlternateTier(t *testing.T) {
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	dram := m.DRAMNodes(0)[0]
	cxl0, cxl1 := m.CXLNodes()[0], m.CXLNodes()[1]

	const pages = 8
	// Fill DRAM completely: the space's cold DRAM pages are the only
	// demotion victims, and its hot cxl1 pages can only be promoted by
	// demoting them.
	fill := vmm.NewSpace(0)
	reserve := dram.Capacity - uint64(pages)*vmm.DefaultPageSize
	if err := alloc.Alloc(fill, reserve, vmm.Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	space := vmm.NewSpace(0)
	if err := alloc.Alloc(space, pages*vmm.DefaultPageSize, vmm.Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	if err := alloc.Alloc(space, pages*vmm.DefaultPageSize, vmm.Bind{Nodes: []*topology.Node{cxl1}}); err != nil {
		t.Fatal(err)
	}
	for i := pages; i < 2*pages; i++ {
		space.Touch(i, 100)
	}

	d := &HotPromote{
		Tiers: Tiers{
			Fast: []*topology.Node{dram},
			Slow: []*topology.Node{cxl0, cxl1}, // cxl0 preferred, but degraded
		},
		RateLimitBytes: 2 * pages * vmm.DefaultPageSize,
	}
	d.SetHealth(fakeHealth{cxl0: true})

	rep := d.Tick(1, space, alloc)
	if rep.DemotedPages == 0 {
		t.Fatal("promotion into a full fast tier produced no demotions")
	}
	for i := range space.Pages {
		if space.Pages[i].NodeID == int32(cxl0.ID) {
			t.Fatalf("page %d demoted onto the degraded cxl0", i)
		}
	}
	onAlternate := 0
	for i := 0; i < pages; i++ {
		if space.Pages[i].NodeID == int32(cxl1.ID) {
			onAlternate++
		}
	}
	if onAlternate != rep.DemotedPages {
		t.Fatalf("%d demoted pages on the alternate tier, want all %d demotions there",
			onAlternate, rep.DemotedPages)
	}
}

// Regression: HotPromote evacuates pages stranded on a degraded slow
// node even when their heat is below the promotion threshold.
func TestHotPromoteEvacuatesDegradedNode(t *testing.T) {
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	dram := m.DRAMNodes(0)[0]
	cxl0 := m.CXLNodes()[0]

	const pages = 8
	space := vmm.NewSpace(0)
	if err := alloc.Alloc(space, pages*vmm.DefaultPageSize, vmm.Bind{Nodes: []*topology.Node{cxl0}}); err != nil {
		t.Fatal(err)
	}

	d := &HotPromote{
		Tiers: Tiers{
			Fast: []*topology.Node{dram},
			Slow: []*topology.Node{cxl0},
		},
		RateLimitBytes: pages * vmm.DefaultPageSize,
		Threshold:      1e9, // no page qualifies on heat — only evacuation can move them
	}

	// Healthy: nothing moves (all pages are cold, threshold unreachable).
	if rep := d.Tick(0, space, alloc); rep.TotalBytes() != 0 {
		t.Fatalf("healthy tick migrated %d bytes with an unreachable threshold", rep.TotalBytes())
	}

	d.SetHealth(fakeHealth{cxl0: true})
	rep := d.Tick(0, space, alloc)
	if rep.PromotedPages != pages {
		t.Fatalf("evacuated %d pages, want all %d off the degraded node", rep.PromotedPages, pages)
	}
	for i := range space.Pages {
		if space.Pages[i].NodeID != int32(dram.ID) {
			t.Fatalf("page %d still on %s after evacuation", i, m.Node(int(space.Pages[i].NodeID)).Name)
		}
	}
	// Evacuation respects the shared migration budget: with a one-page
	// budget only one page moves per tick.
	space2 := vmm.NewSpace(0)
	if err := alloc.Alloc(space2, pages*vmm.DefaultPageSize, vmm.Bind{Nodes: []*topology.Node{cxl0}}); err != nil {
		t.Fatal(err)
	}
	d2 := &HotPromote{
		Tiers:          d.Tiers,
		RateLimitBytes: vmm.DefaultPageSize,
		Threshold:      1e9,
	}
	d2.SetHealth(fakeHealth{cxl0: true})
	if rep := d2.Tick(0, space2, alloc); rep.PromotedPages != 1 {
		t.Fatalf("budget-capped evacuation moved %d pages, want 1", rep.PromotedPages)
	}
}

// countingHealth counts Degraded calls and reports every node healthy.
type countingHealth struct{ calls int }

func (c *countingHealth) Degraded(*topology.Node) bool { c.calls++; return false }

// TestTickAsksHealthOncePerSlowNode: a tick with nothing to migrate asks
// the health source about each slow node once, however many pages those
// nodes hold.
func TestTickAsksHealthOncePerSlowNode(t *testing.T) {
	m := topology.Testbed()
	alloc := vmm.NewAllocator(m)
	cxl := m.CXLNodes()
	space := vmm.NewSpace(0)
	if err := alloc.Alloc(space, 64*vmm.DefaultPageSize, vmm.InterleaveNM{Top: cxl[:1], Low: cxl[1:], N: 1, M: 1}); err != nil {
		t.Fatal(err)
	}
	h := &countingHealth{}
	d := &HotPromote{
		Tiers:          Tiers{Fast: m.DRAMNodes(0), Slow: cxl, Health: h},
		RateLimitBytes: 8 * vmm.DefaultPageSize,
		Threshold:      1e9,
	}
	for tick := 1; tick <= 3; tick++ {
		if rep := d.Tick(0, space, alloc); rep.TotalBytes() != 0 {
			t.Fatalf("tick %d migrated %d bytes with an unreachable threshold", tick, rep.TotalBytes())
		}
		if want := tick * len(cxl); h.calls != want {
			t.Fatalf("after %d ticks Health.Degraded ran %d times, want %d", tick, h.calls, want)
		}
	}
}
