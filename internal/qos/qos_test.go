package qos

import (
	"testing"
	"testing/quick"

	"cxlsim/internal/memsim"
	"cxlsim/internal/topology"
)

// scenario: a latency-critical tenant at 10 GB/s shares one SNC domain
// with bandwidth hogs.
func scenario(t *testing.T, hogGBps float64, hogs int) []Tenant {
	t.Helper()
	m := topology.TestbedSNC()
	pl := memsim.SinglePath(m.PathFrom(0, m.DRAMNodes(0)[0]))
	tenants := []Tenant{{
		Name: "lc", Class: LatencyCritical, Placement: pl,
		Mix: memsim.ReadOnly, DemandGBps: 10,
	}}
	for i := 0; i < hogs; i++ {
		tenants = append(tenants, Tenant{
			Name: "hog", Class: BestEffort, Placement: pl,
			Mix: memsim.ReadOnly, DemandGBps: hogGBps,
		})
	}
	return tenants
}

func TestRegulatorProtectsLatencyCritical(t *testing.T) {
	tenants := scenario(t, 40, 2) // 10 + 80 offered on a 67 GB/s domain
	un := Unregulated(tenants)
	reg := Regulator{}.Regulate(tenants)

	if un[0].LatencyNs < 2*reg[0].LatencyNs {
		t.Fatalf("regulation should cut LC latency sharply: %v -> %v", un[0].LatencyNs, reg[0].LatencyNs)
	}
	// Regulated LC latency stays near idle (below the knee).
	if reg[0].LatencyNs > 130 {
		t.Fatalf("regulated LC latency = %v ns, want near-idle (<130)", reg[0].LatencyNs)
	}
	// LC demand is never throttled.
	if reg[0].GrantedGBps != 10 {
		t.Fatalf("LC grant = %v, want full 10", reg[0].GrantedGBps)
	}
}

func TestBestEffortSharesResidual(t *testing.T) {
	tenants := scenario(t, 40, 2)
	reg := Regulator{}.Regulate(tenants)
	// Equal-demand hogs get equal grants.
	if reg[1].GrantedGBps != reg[2].GrantedGBps {
		t.Fatalf("equal hogs got unequal grants: %v vs %v", reg[1].GrantedGBps, reg[2].GrantedGBps)
	}
	// Residual ≈ target×peak − LC demand, split across hogs.
	residual := 0.75*67 - 10
	got := reg[1].GrantedGBps + reg[2].GrantedGBps
	if got < residual*0.9 || got > residual*1.05 {
		t.Fatalf("hog grants total %v, want ≈%v", got, residual)
	}
	if reg[1].GrantedGBps >= reg[1].Tenant.DemandGBps {
		t.Fatal("hogs must be throttled in this scenario")
	}
}

func TestNoThrottleUnderLightLoad(t *testing.T) {
	tenants := scenario(t, 5, 2) // total 20 of 67 — well under target
	reg := Regulator{}.Regulate(tenants)
	for i, a := range reg {
		if a.GrantedGBps != tenants[i].DemandGBps {
			t.Fatalf("tenant %d throttled (%v of %v) despite light load", i, a.GrantedGBps, tenants[i].DemandGBps)
		}
	}
}

func TestMinGrantFloor(t *testing.T) {
	// Even with LC demand at the target, BE tenants keep the floor.
	m := topology.TestbedSNC()
	pl := memsim.SinglePath(m.PathFrom(0, m.DRAMNodes(0)[0]))
	tenants := []Tenant{
		{Name: "lc", Class: LatencyCritical, Placement: pl, Mix: memsim.ReadOnly, DemandGBps: 0.75 * 67},
		{Name: "be", Class: BestEffort, Placement: pl, Mix: memsim.ReadOnly, DemandGBps: 20},
	}
	reg := Regulator{MinGrantGBps: 1.5}.Regulate(tenants)
	if reg[1].GrantedGBps < 1.5 {
		t.Fatalf("BE grant %v below the floor", reg[1].GrantedGBps)
	}
}

func TestRegulateAcrossTiers(t *testing.T) {
	// The §3.4 composition: pushing the hog onto an interleaved DRAM+CXL
	// placement leaves more DRAM headroom, so the regulator can grant it
	// more than a DRAM-only hog.
	m := topology.TestbedSNC()
	dram := m.PathFrom(0, m.DRAMNodes(0)[0])
	cxl := m.PathFrom(0, m.CXLNodes()[0])
	lc := Tenant{Name: "lc", Class: LatencyCritical,
		Placement: memsim.SinglePath(dram), Mix: memsim.ReadOnly, DemandGBps: 20}

	dramHog := Tenant{Name: "hog", Class: BestEffort,
		Placement: memsim.SinglePath(dram), Mix: memsim.ReadOnly, DemandGBps: 80}
	tieredHog := dramHog
	tieredHog.Placement = memsim.Interleave(dram, cxl, 1, 1)

	gDram := Regulator{}.Regulate([]Tenant{lc, dramHog})[1].GrantedGBps
	gTiered := Regulator{}.Regulate([]Tenant{lc, tieredHog})[1].GrantedGBps
	if gTiered <= gDram*1.3 {
		t.Fatalf("tiered hog grant %v should well exceed DRAM-only grant %v", gTiered, gDram)
	}
}

func TestValidation(t *testing.T) {
	m := topology.TestbedSNC()
	pl := memsim.SinglePath(m.PathFrom(0, m.DRAMNodes(0)[0]))
	for name, f := range map[string]func(){
		"target": func() {
			Regulator{TargetUtil: 1.5}.Regulate([]Tenant{{Placement: pl, DemandGBps: 1}})
		},
		"demand": func() {
			Regulator{}.Regulate([]Tenant{{Placement: pl, DemandGBps: -1}})
		},
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
	if LatencyCritical.String() == BestEffort.String() {
		t.Fatal("class strings must differ")
	}
}

// Property: the regulator never throttles latency-critical tenants and
// never grants more than demand.
func TestPropertyRegulatorInvariants(t *testing.T) {
	m := topology.TestbedSNC()
	pl := memsim.SinglePath(m.PathFrom(0, m.DRAMNodes(0)[0]))
	f := func(demands []uint8) bool {
		if len(demands) == 0 {
			return true
		}
		var tenants []Tenant
		for i, d := range demands {
			class := LatencyCritical
			if i%2 == 1 {
				class = BestEffort
			}
			tenants = append(tenants, Tenant{
				Name: "t", Class: class, Placement: pl,
				Mix: memsim.ReadOnly, DemandGBps: float64(d % 40),
			})
		}
		for i, a := range (Regulator{}).Regulate(tenants) {
			if a.GrantedGBps > tenants[i].DemandGBps+0.51 { // floor may exceed tiny demands
				return false
			}
			if tenants[i].Class == LatencyCritical && a.GrantedGBps != tenants[i].DemandGBps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
