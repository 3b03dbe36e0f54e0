package mlc

import (
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
