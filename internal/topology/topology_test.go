package topology

import (
	"testing"

	"cxlsim/internal/memsim"
)

// capacity sums the capacities of m's nodes of one kind.
func capacity(m *Machine, kind NodeKind) uint64 {
	var sum uint64
	for _, n := range m.Nodes {
		if n.Kind == kind {
			sum += n.Capacity
		}
	}
	return sum
}

func TestTestbedShape(t *testing.T) {
	m := Testbed()
	if got := len(m.DRAMNodes(0)); got != 1 {
		t.Fatalf("socket 0 DRAM nodes = %d, want 1 (SNC off)", got)
	}
	if got := len(m.CXLNodes()); got != 2 {
		t.Fatalf("CXL nodes = %d, want 2 (two A1000 cards)", got)
	}
	if got := capacity(m, DRAM); got != 1024<<30 {
		t.Fatalf("DRAM capacity = %d, want 1 TB", got)
	}
	if got := capacity(m, CXL); got != 512<<30 {
		t.Fatalf("CXL capacity = %d, want 512 GB", got)
	}
	for _, n := range m.CXLNodes() {
		if n.Socket != 0 {
			t.Fatal("CXL cards must be on socket 0 (§2.4)")
		}
	}
}

func TestTestbedSNCShape(t *testing.T) {
	m := TestbedSNC()
	if got := len(m.DRAMNodes(0)); got != 4 {
		t.Fatalf("socket 0 DRAM nodes = %d, want 4 (SNC-4)", got)
	}
	if got := len(m.DRAMNodes(1)); got != 4 {
		t.Fatalf("socket 1 DRAM nodes = %d, want 4", got)
	}
	n := m.DRAMNodes(0)[0]
	if n.Capacity != 128<<30 {
		t.Fatalf("SNC domain capacity = %d, want 128 GB", n.Capacity)
	}
	if got := capacity(m, DRAM); got != 1024<<30 {
		t.Fatalf("total DRAM = %d, want 1 TB regardless of SNC", got)
	}
}

func TestRemoteCXLBandwidthClamp(t *testing.T) {
	m := TestbedSNC()
	remoteCXL := m.PathFrom(1, m.CXLNodes()[0])
	localCXL := m.PathFrom(0, m.CXLNodes()[0])
	if localCXL.PeakBandwidth(memsim.Mix2to1) < 2*remoteCXL.PeakBandwidth(memsim.Mix2to1) {
		t.Fatal("remote CXL bandwidth should be less than half of local (§3.2: 'unexpectedly halved')")
	}
}

func TestPathCaching(t *testing.T) {
	m := Testbed()
	n := m.DRAMNodes(0)[0]
	if m.PathFrom(0, n) != m.PathFrom(0, n) {
		t.Fatal("paths to the same node must be cached/shared")
	}
	if m.SSDPath() != m.SSDPath() {
		t.Fatal("SSD path must be cached")
	}
}

func TestSharedContentionAcrossSockets(t *testing.T) {
	// Both sockets hammering the same DRAM node share its device.
	m := Testbed()
	n := m.DRAMNodes(0)[0]
	p0 := m.PathFrom(0, n)
	p1 := m.PathFrom(1, n)
	res, _ := memsim.SolveOpen([]memsim.OpenFlow{
		{Placement: memsim.SinglePath(p0), Mix: memsim.ReadOnly, Offered: 150},
		{Placement: memsim.SinglePath(p1), Mix: memsim.ReadOnly, Offered: 150},
	})
	total := res[0].Achieved + res[1].Achieved
	if total > n.Resource().Peak.At(1)+1 {
		t.Fatalf("combined achieved %.1f exceeds device peak", total)
	}
}

func TestNodeLookupAndBounds(t *testing.T) {
	m := Testbed()
	if m.Node(0).ID != 0 {
		t.Fatal("Node(0) wrong")
	}
	for name, f := range map[string]func(){
		"bad node":   func() { m.Node(99) },
		"bad socket": func() { m.PathFrom(5, m.Nodes[0]) },
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

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no sockets":   {Sockets: 0},
		"negative cxl": {Sockets: 1, CXLSocket0: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestResourcesEnumeration(t *testing.T) {
	m := Testbed()
	rs := m.Resources()
	// 2 DRAM + 2 CXL + UPI + 2 RSF + SSD = 8.
	if len(rs) != 8 {
		t.Fatalf("resources = %d, want 8", len(rs))
	}
	single := New(Config{Name: "one", Sockets: 1})
	if single.UPI() != nil {
		t.Fatal("single-socket machine should have no UPI")
	}
}

func TestNodeKindString(t *testing.T) {
	if DRAM.String() != "dram" || CXL.String() != "cxl" {
		t.Fatal("kind strings wrong")
	}
}

func TestSSDPathIsSlow(t *testing.T) {
	m := Testbed()
	ssd := m.SSDPath()
	if ssd.IdleLatency(memsim.ReadOnly) < 10_000 {
		t.Fatal("SSD read latency should be tens of microseconds")
	}
}

func TestUPIUtilizationBelow30OnRemoteCXL(t *testing.T) {
	// §3.2: at the remote-CXL bandwidth clamp the RSF, not the UPI, is
	// the bottleneck. The UPI utilization itself is a claim row (fig3)
	// in the root claims table.
	m := TestbedSNC()
	p := m.PathFrom(1, m.CXLNodes()[0])
	peak := p.PeakBandwidth(memsim.Mix2to1)
	_, util := memsim.SolveOpen([]memsim.OpenFlow{
		{Placement: memsim.SinglePath(p), Mix: memsim.Mix2to1, Offered: peak},
	})
	if upi, rsf := util[m.UPI()], util[p.Resources[1]]; upi >= rsf {
		t.Fatalf("UPI utilization %v at remote-CXL saturation, RSF %v; the RSF should be the bottleneck", upi, rsf)
	}
}

func TestDegradeValidation(t *testing.T) {
	m := TestbedSNC()
	r := m.CXLNodes()[0].Resource()
	for name, f := range map[string]func(){
		"bw zero": func() { r.Degrade(0, 1) },
		"bw >1":   func() { r.Degrade(1.5, 1) },
		"lat <1":  func() { r.Degrade(0.5, 0.9) },
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

func TestDegradeAffectsAnchors(t *testing.T) {
	m := TestbedSNC()
	node := m.CXLNodes()[0]
	p := m.PathFrom(0, node)
	before := p.PeakBandwidth(memsim.Mix2to1)
	idleBefore := p.IdleLatency(memsim.ReadOnly)
	node.Resource().Degrade(0.5, 2)
	if after := p.PeakBandwidth(memsim.Mix2to1); after > before*0.51 {
		t.Fatalf("peak after degrade = %v, want ≈half of %v", after, before)
	}
	if idle := p.IdleLatency(memsim.ReadOnly); idle < idleBefore*1.9 {
		t.Fatalf("idle after degrade = %v, want ≈2× %v", idle, idleBefore)
	}
}
