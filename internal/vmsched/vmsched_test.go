package vmsched

import (
	"errors"
	"testing"
	"testing/quick"
)

// sierra builds a §4.3-shaped server: 1152 vCPUs, 1:3-provisioned DRAM
// (3456 GB), optionally with CXL expansion covering the 1:4 gap.
func sierra(cxlGB int) *Server {
	return NewServer("sierra", 1152, 1152*3, cxlGB)
}

func TestPaperScenarioWithoutCXL(t *testing.T) {
	// 1:3 provisioning cannot sell every vCPU at the canonical 1:4; the
	// sellable share is a claim row (fleet) in the root claims table.
	s := NewScheduler(sierra(0))
	rejected := s.PackAll(StandardInstances(1152/8, 8))
	r := s.Report(0.2)
	if len(rejected) == 0 {
		t.Fatal("memory-limited server must reject instances")
	}
	if r.SoldCXL != 0 {
		t.Fatal("no CXL on this server")
	}
}

func TestPaperScenarioWithCXL(t *testing.T) {
	// Adding a CXL expander that covers the gap sells everything, at a
	// revenue gain over the non-CXL baseline even with the 20% discount;
	// the gain's value is a claim row (fleet) in the root claims table.
	without := NewScheduler(sierra(0))
	without.PackAll(StandardInstances(1152/8, 8))
	base := without.Report(0.2).RevenueUnits

	with := NewScheduler(sierra(1152)) // 1 GB/vCPU of CXL closes the 1:4 gap
	rejected := with.PackAll(StandardInstances(1152/8, 8))
	if len(rejected) != 0 {
		t.Fatalf("CXL-expanded server rejected %d instances", len(rejected))
	}
	if r := with.Report(0.2); r.RevenueUnits <= base {
		t.Fatalf("revenue with CXL %v, want above the non-CXL %v", r.RevenueUnits, base)
	}
}

func TestDRAMPreferredOverCXL(t *testing.T) {
	s := NewScheduler(NewServer("srv", 16, 32, 32))
	p, err := s.Place(Instance{Name: "a", VCPUs: 4, MemoryGB: 16})
	if err != nil {
		t.Fatal(err)
	}
	if p.Class != OnDRAM {
		t.Fatal("DRAM must be preferred while available")
	}
	// Next instance exceeds remaining DRAM → CXL.
	p2, err := s.Place(Instance{Name: "b", VCPUs: 4, MemoryGB: 24})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Class != OnCXL {
		t.Fatalf("overflow instance landed on %v, want cxl", p2.Class)
	}
}

func TestPlaceRejectsWhenFull(t *testing.T) {
	s := NewScheduler(NewServer("srv", 4, 16, 0))
	if _, err := s.Place(Instance{Name: "a", VCPUs: 4, MemoryGB: 16}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Place(Instance{Name: "b", VCPUs: 1, MemoryGB: 1})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
}

func TestValidation(t *testing.T) {
	s := NewScheduler(NewServer("srv", 4, 16, 0))
	if _, err := s.Place(Instance{Name: "bad", VCPUs: 0, MemoryGB: 1}); err == nil {
		t.Error("zero vCPUs should error")
	}
	for name, f := range map[string]func(){
		"server":   func() { NewServer("x", 0, 1, 0) },
		"fleet":    func() { NewScheduler() },
		"discount": func() { s.Report(1.0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPackAllFFD(t *testing.T) {
	// Largest-first packing fits a big instance that naive order would
	// strand.
	s := NewScheduler(NewServer("srv", 16, 64, 0))
	insts := []Instance{
		{Name: "small1", VCPUs: 2, MemoryGB: 8},
		{Name: "big", VCPUs: 12, MemoryGB: 48},
		{Name: "small2", VCPUs: 2, MemoryGB: 8},
	}
	rejected := s.PackAll(insts)
	if len(rejected) != 0 {
		t.Fatalf("FFD should fit all: rejected %v", rejected)
	}
	if s.Placements[0].Instance.Name != "big" {
		t.Fatal("FFD should place the big instance first")
	}
}

func TestMultiServerSpill(t *testing.T) {
	a := NewServer("a", 8, 32, 0)
	b := NewServer("b", 8, 32, 0)
	s := NewScheduler(a, b)
	rejected := s.PackAll(StandardInstances(2, 8))
	if len(rejected) != 0 {
		t.Fatalf("two servers fit two instances: %v", rejected)
	}
	if a.FreeVCPUs() != 0 || b.FreeVCPUs() != 0 {
		t.Fatal("instances should spread across servers")
	}
}

func TestMemoryClassString(t *testing.T) {
	if OnDRAM.String() != "dram" || OnCXL.String() != "cxl" {
		t.Fatal("class strings wrong")
	}
}

func TestEmptyReport(t *testing.T) {
	if (FleetReport{}).SellableFrac() != 0 {
		t.Fatal("empty fleet sellable fraction should be 0")
	}
}

// Property: capacity is never oversubscribed through any admission
// sequence, and revenue is bounded by sold vCPUs.
func TestPropertyNoOversubscription(t *testing.T) {
	f := func(sizes []uint8) bool {
		srv := NewServer("srv", 64, 128, 64)
		s := NewScheduler(srv)
		for i, raw := range sizes {
			v := int(raw%8) + 1
			s.Place(Instance{Name: "vm", VCPUs: v, MemoryGB: v * int(raw%5+1)})
			if srv.FreeVCPUs() < 0 || srv.FreeDRAM() < 0 || srv.FreeCXL() < 0 {
				return false
			}
			_ = i
		}
		r := s.Report(0.2)
		return r.RevenueUnits <= float64(r.SoldDRAM+r.SoldCXL)+1e-9 &&
			r.Stranded >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
