package vmm

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"cxlsim/internal/topology"
)

func testMachine() *topology.Machine { return topology.Testbed() }

// shares is each node's fraction of the total mass over the space's
// pages, by node ID, where mass(i) weighs page i.
func shares(s *Space, mass func(page int) float64) map[int]float64 {
	out := map[int]float64{}
	total := 0.0
	for i := range s.Pages {
		out[int(s.Pages[i].NodeID)] += mass(i)
		total += mass(i)
	}
	for n := range out {
		out[n] /= total
	}
	return out
}

// nodeShare is the fraction of the space's pages on each node, by ID.
func nodeShare(s *Space) map[int]float64 {
	return shares(s, func(int) float64 { return 1 })
}

// TestPageLayout pins the page record at 16 bytes with nothing for the
// garbage collector to scan: a 512 GB working set is 262,144 of them per
// deployment.
func TestPageLayout(t *testing.T) {
	if size := unsafe.Sizeof(Page{}); size != 16 {
		t.Fatalf("Page is %d bytes, want 16", size)
	}
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.String, reflect.Chan, reflect.Func:
			return true
		case reflect.Array:
			return holdsPointer(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if holdsPointer(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	if typ := reflect.TypeOf(Page{}); holdsPointer(typ) {
		t.Fatalf("%v holds a pointer, slice, map, string or interface", typ)
	}
}

func TestAllocBindFillsInOrder(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	if err := a.Alloc(s, 10*DefaultPageSize, Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	if len(s.Pages) != 10 {
		t.Fatalf("pages = %d, want 10", len(s.Pages))
	}
	for i := range s.Pages {
		if s.Pages[i].NodeID != int32(dram.ID) {
			t.Fatal("bind page landed off-node")
		}
	}
	if a.used[dram.ID] != 10*DefaultPageSize {
		t.Fatalf("used = %d", a.used[dram.ID])
	}
}

func TestAllocRoundsUpPartialPage(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	if err := a.Alloc(s, 1, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	if len(s.Pages) != 1 {
		t.Fatalf("pages = %d, want 1 (round up)", len(s.Pages))
	}
}

func TestAllocCapacityExhaustion(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	if err := a.Alloc(s, dram.Capacity, Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	before := len(s.Pages)
	err := a.Alloc(s, DefaultPageSize, Bind{Nodes: []*topology.Node{dram}})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if len(s.Pages) != before {
		t.Fatal("failed alloc must not grow the space")
	}
	if a.Free(dram) != 0 {
		t.Fatalf("free = %d, want 0", a.Free(dram))
	}
}

func TestPreferredOverflows(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	cxl := m.CXLNodes()[0]
	// Fill DRAM almost completely, leaving 2 pages.
	filler := NewSpace(0)
	if err := a.Alloc(filler, dram.Capacity-2*DefaultPageSize, Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	pol := Preferred{Primary: []*topology.Node{dram}, Fallback: []*topology.Node{cxl}}
	if err := a.Alloc(s, 5*DefaultPageSize, pol); err != nil {
		t.Fatal(err)
	}
	onDram, onCXL := 0, 0
	for i := range s.Pages {
		switch int(s.Pages[i].NodeID) {
		case dram.ID:
			onDram++
		case cxl.ID:
			onCXL++
		}
	}
	if onDram != 2 || onCXL != 3 {
		t.Fatalf("placement dram=%d cxl=%d, want 2/3", onDram, onCXL)
	}
}

func TestInterleaveNMRatio(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	cxl := m.CXLNodes()[0]
	pol := InterleaveNM{Top: []*topology.Node{dram}, Low: []*topology.Node{cxl}, N: 3, M: 1}
	if err := a.Alloc(s, 400*DefaultPageSize, pol); err != nil {
		t.Fatal(err)
	}
	share := nodeShare(s)
	if math.Abs(share[dram.ID]-0.75) > 0.01 {
		t.Fatalf("3:1 interleave dram share = %v, want 0.75", share[dram.ID])
	}
	if math.Abs(share[cxl.ID]-0.25) > 0.01 {
		t.Fatalf("3:1 interleave cxl share = %v, want 0.25", share[cxl.ID])
	}
}

func TestInterleaveRoundRobinsWithinTier(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	cxls := m.CXLNodes()
	pol := InterleaveNM{Top: []*topology.Node{m.DRAMNodes(0)[0]}, Low: cxls, N: 1, M: 2}
	if err := a.Alloc(s, 300*DefaultPageSize, pol); err != nil {
		t.Fatal(err)
	}
	share := nodeShare(s)
	if math.Abs(share[cxls[0].ID]-share[cxls[1].ID]) > 0.02 {
		t.Fatalf("low tier not balanced: %v vs %v", share[cxls[0].ID], share[cxls[1].ID])
	}
}

func TestInterleaveBadConfig(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	if err := a.Alloc(s, DefaultPageSize, InterleaveNM{N: 0, M: 0}); err == nil {
		t.Fatal("want error for 0:0 ratio")
	}
	if err := a.Alloc(s, DefaultPageSize, InterleaveNM{N: 1, M: 1, Top: m.DRAMNodes(0)}); err == nil {
		t.Fatal("want error for empty low tier")
	}
}

func TestBindNoNodes(t *testing.T) {
	a := NewAllocator(testMachine())
	if err := a.Alloc(NewSpace(0), DefaultPageSize, Bind{}); err == nil {
		t.Fatal("want error for bind with no nodes")
	}
}

func TestMigrate(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	cxl := m.CXLNodes()[0]
	if err := a.Alloc(s, DefaultPageSize, Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(s, 0, cxl); err != nil {
		t.Fatal(err)
	}
	if s.Pages[0].NodeID != int32(cxl.ID) {
		t.Fatal("page did not move")
	}
	if a.used[dram.ID] != 0 || a.used[cxl.ID] != DefaultPageSize {
		t.Fatal("capacity accounting wrong after migrate")
	}
	// Self-migration is a no-op.
	if err := a.Migrate(s, 0, cxl); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateNoCapacity(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	cxl := m.CXLNodes()[0]
	filler := NewSpace(0)
	if err := a.Alloc(filler, cxl.Capacity, Bind{Nodes: []*topology.Node{cxl}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Alloc(s, DefaultPageSize, Bind{Nodes: []*topology.Node{dram}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Migrate(s, 0, cxl); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestTouchAndHeat(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	if err := a.Alloc(s, 4*DefaultPageSize, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	s.Touch(0, 10)
	s.Touch(1, 30)
	if s.Heat(0) != 10 || s.Heat(1) != 30 {
		t.Fatal("heat not accumulated")
	}
	s.DecayHeat(0.5)
	if s.Heat(0) != 5 || s.Heat(1) != 15 {
		t.Fatal("decay wrong")
	}
}

func TestDecayValidation(t *testing.T) {
	s := NewSpace(0)
	defer func() {
		if recover() == nil {
			t.Fatal("bad decay factor did not panic")
		}
	}()
	s.DecayHeat(1.5)
}

// TestHeatShare: on a 1:1 interleave, touching only the DRAM pages puts
// all the heat mass on DRAM.
func TestHeatShare(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	dram := m.DRAMNodes(0)[0]
	cxl := m.CXLNodes()[0]
	pol := InterleaveNM{Top: []*topology.Node{dram}, Low: []*topology.Node{cxl}, N: 1, M: 1}
	if err := a.Alloc(s, 10*DefaultPageSize, pol); err != nil {
		t.Fatal(err)
	}
	if share := nodeShare(s); math.Abs(share[dram.ID]-0.5) > 0.01 {
		t.Fatalf("capacity share = %v, want 0.5", share[dram.ID])
	}
	// Heat up only DRAM pages.
	for i := range s.Pages {
		if s.Pages[i].NodeID == int32(dram.ID) {
			s.Touch(i, 100)
		}
	}
	hs := shares(s, s.Heat)
	if hs[dram.ID] < 0.99 {
		t.Fatalf("hot share = %v, want ≈1", hs[dram.ID])
	}
}

func TestPageFor(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	if err := a.Alloc(s, 4*DefaultPageSize, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	if s.PageFor(0) != 0 || s.PageFor(DefaultPageSize) != 1 || s.PageFor(4*DefaultPageSize-1) != 3 {
		t.Fatal("PageFor mapping wrong")
	}
	if s.Bytes() != 4*DefaultPageSize {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range offset did not panic")
		}
	}()
	s.PageFor(4 * DefaultPageSize)
}

// Property: interleave N:M share of the top tier ≈ N/(N+M) for any valid
// small ratio.
func TestPropertyInterleaveShares(t *testing.T) {
	m := testMachine()
	f := func(nRaw, mRaw uint8) bool {
		n, mm := int(nRaw%8), int(mRaw%8)
		if n+mm == 0 {
			return true
		}
		a := NewAllocator(m)
		s := NewSpace(0)
		pol := InterleaveNM{
			Top: []*topology.Node{m.DRAMNodes(0)[0]},
			Low: []*topology.Node{m.CXLNodes()[0]},
			N:   n, M: mm,
		}
		pages := 64 * (n + mm)
		if err := a.Alloc(s, uint64(pages)*DefaultPageSize, pol); err != nil {
			return false
		}
		share := nodeShare(s)[m.DRAMNodes(0)[0].ID]
		want := float64(n) / float64(n+mm)
		return math.Abs(share-want) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: capacity accounting never goes negative or above capacity
// through any alloc/free/migrate sequence.
func TestPropertyCapacityInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		m := testMachine()
		a := NewAllocator(m)
		s := NewSpace(0)
		dram := m.DRAMNodes(0)[0]
		cxl := m.CXLNodes()[0]
		for _, op := range ops {
			switch op % 3 {
			case 0:
				_ = a.Alloc(s, uint64(op)*DefaultPageSize, Bind{Nodes: []*topology.Node{dram}})
			case 1:
				if len(s.Pages) > 0 {
					_ = a.Migrate(s, int(op)%len(s.Pages), cxl)
				}
			case 2:
				if op%7 == 0 {
					// Free the whole space.
					for i := range s.Pages {
						a.release(s.Pages[i].NodeID, s.PageSize)
					}
					s.Pages = s.Pages[:0]
				}
			}
			for _, n := range m.Nodes {
				if a.used[n.ID] > n.Capacity {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
