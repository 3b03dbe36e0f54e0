package mlc

import (
	"math"
	"testing"

	"cxlsim/internal/memsim"
	"cxlsim/internal/topology"
)

func paths(t *testing.T) (local, remote, cxl, cxlr *memsim.Path) {
	t.Helper()
	m := topology.TestbedSNC()
	local = m.PathFrom(0, m.DRAMNodes(0)[0])
	remote = m.PathFrom(1, m.DRAMNodes(0)[0])
	cxl = m.PathFrom(0, m.CXLNodes()[0])
	cxlr = m.PathFrom(1, m.CXLNodes()[0])
	return
}

func TestFig3aMMEMReadOnly(t *testing.T) {
	local, _, _, _ := paths(t)
	c := LoadedLatency(local, memsim.ReadOnly, DefaultOptions())
	if idle := c.IdleLatency(); math.Abs(idle-97)/97 > 0.1 {
		t.Errorf("MMEM idle latency = %.1f, want ≈97", idle)
	}
	if peak := c.PeakBandwidth(); math.Abs(peak-67)/67 > 0.02 {
		t.Errorf("MMEM read peak = %.1f, want ≈67", peak)
	}
	// §3.2: latency starts to significantly increase at 75–83% of
	// bandwidth utilization.
	if knee := c.KneeUtilization(); knee < 0.70 || knee > 0.90 {
		t.Errorf("MMEM knee at %.2f of peak, want within [0.70,0.90]", knee)
	}
}

func TestFig3aWriteBandwidthDip(t *testing.T) {
	local, _, _, _ := paths(t)
	ro := LoadedLatency(local, memsim.ReadOnly, DefaultOptions())
	wo := LoadedLatency(local, memsim.WriteOnly, DefaultOptions())
	if wo.PeakBandwidth() >= ro.PeakBandwidth() {
		t.Fatal("write-only peak must be below read-only peak")
	}
	if math.Abs(wo.PeakBandwidth()-54.6)/54.6 > 0.02 {
		t.Errorf("write-only peak = %.1f, want ≈54.6", wo.PeakBandwidth())
	}
}

func TestFig3cCXLCurve(t *testing.T) {
	_, _, cxl, _ := paths(t)
	c := LoadedLatency(cxl, memsim.Mix2to1, DefaultOptions())
	if idle := c.IdleLatency(); math.Abs(idle-250.42)/250.42 > 0.1 {
		t.Errorf("CXL idle = %.1f, want ≈250.42 (loaded at first point may add a little)", idle)
	}
	if peak := c.PeakBandwidth(); math.Abs(peak-56.7)/56.7 > 0.02 {
		t.Errorf("CXL 2:1 peak = %.1f, want ≈56.7", peak)
	}
}

func TestFig3dRemoteCXLHalvedBandwidth(t *testing.T) {
	_, remote, cxl, cxlr := paths(t)
	rc := LoadedLatency(cxlr, memsim.Mix2to1, DefaultOptions())
	if peak := rc.PeakBandwidth(); math.Abs(peak-20.4)/20.4 > 0.05 {
		t.Errorf("remote CXL peak = %.1f, want ≈20.4", peak)
	}
	// The 485 ns idle anchor is a read measurement; check the read-only sweep.
	roc := LoadedLatency(cxlr, memsim.ReadOnly, DefaultOptions())
	if idle := roc.IdleLatency(); math.Abs(idle-485)/485 > 0.1 {
		t.Errorf("remote CXL read idle = %.1f, want ≈485", idle)
	}
	// Much more severe drop than remote DDR (§3.2).
	rd := LoadedLatency(remote, memsim.Mix2to1, DefaultOptions())
	lc := LoadedLatency(cxl, memsim.Mix2to1, DefaultOptions())
	remoteDDRDrop := rd.PeakBandwidth() / LoadedLatency(paths3(t), memsim.Mix2to1, DefaultOptions()).PeakBandwidth()
	remoteCXLDrop := rc.PeakBandwidth() / lc.PeakBandwidth()
	if remoteCXLDrop >= remoteDDRDrop {
		t.Errorf("remote CXL drop (%.2f) should be more severe than remote DDR drop (%.2f)",
			remoteCXLDrop, remoteDDRDrop)
	}
}

func paths3(t *testing.T) *memsim.Path {
	local, _, _, _ := paths(t)
	return local
}

func TestFig4KneeShiftsLeftWithWrites(t *testing.T) {
	local, _, _, _ := paths(t)
	ro := LoadedLatency(local, memsim.ReadOnly, DefaultOptions())
	wo := LoadedLatency(local, memsim.WriteOnly, DefaultOptions())
	if wo.KneeUtilization() >= ro.KneeUtilization() {
		t.Errorf("knee should shift left with writes: read %.2f vs write %.2f",
			ro.KneeUtilization(), wo.KneeUtilization())
	}
}

func TestFig4RandomVsSequentialNeutral(t *testing.T) {
	// Fig. 4(g,h): no significant performance disparity.
	local, _, _, _ := paths(t)
	seq := LoadedLatency(local, memsim.ReadOnly, DefaultOptions())
	rnd := LoadedLatency(local, memsim.ReadOnly.WithPattern(memsim.Random), DefaultOptions())
	if math.Abs(seq.PeakBandwidth()-rnd.PeakBandwidth())/seq.PeakBandwidth() > 0.05 {
		t.Error("random vs sequential peak bandwidth differs >5%")
	}
	if rnd.IdleLatency() > seq.IdleLatency()*1.05 {
		t.Error("random idle latency penalty should be ≤5%")
	}
}

func TestCurveMonotoneLatency(t *testing.T) {
	local, _, _, _ := paths(t)
	for _, mix := range memsim.StandardMixes() {
		c := LoadedLatency(local, mix, DefaultOptions())
		prev := 0.0
		for i, p := range c.Points {
			if p.LatencyNs < prev-1e-9 {
				t.Fatalf("mix %s: latency decreased at point %d", mix.Label(), i)
			}
			prev = p.LatencyNs
		}
	}
}

func TestLatencySpikesNearSaturation(t *testing.T) {
	local, _, _, _ := paths(t)
	c := LoadedLatency(local, memsim.ReadOnly, DefaultOptions())
	last := c.Points[len(c.Points)-1]
	if last.LatencyNs < c.IdleLatency()*4 {
		t.Errorf("saturated latency %.0f should be ≥4× idle %.0f", last.LatencyNs, c.IdleLatency())
	}
}

func TestSweepHelpers(t *testing.T) {
	local, remote, _, _ := paths(t)
	pathCurves := SweepPaths([]*memsim.Path{local, remote}, memsim.ReadOnly, DefaultOptions())
	if len(pathCurves) != 2 {
		t.Fatalf("SweepPaths returned %d curves, want 2", len(pathCurves))
	}
	if pathCurves[0].PathName == pathCurves[1].PathName {
		t.Fatal("curves should carry their path names")
	}
}

func TestOptionsDefaultsAndValidation(t *testing.T) {
	local, _, _, _ := paths(t)
	// Zero options fill to defaults and work.
	c := LoadedLatency(local, memsim.ReadOnly, Options{})
	if len(c.Points) != 40 {
		t.Fatalf("default steps = %d, want 40", len(c.Points))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid options did not panic")
		}
	}()
	LoadedLatency(local, memsim.ReadOnly, Options{Steps: 1, Threads: 1, AccessBytes: 1, Overdrive: 1})
}

func TestEmptyCurveAccessors(t *testing.T) {
	var c Curve
	if c.IdleLatency() != 0 || c.PeakBandwidth() != 0 || c.KneeUtilization() != 0 {
		t.Fatal("empty curve accessors should return 0")
	}
}

func BenchmarkLoadedLatencySweep(b *testing.B) {
	m := topology.TestbedSNC()
	local := m.PathFrom(0, m.DRAMNodes(0)[0])
	for i := 0; i < b.N; i++ {
		LoadedLatency(local, memsim.ReadOnly, DefaultOptions())
	}
}
