package memsim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMixLabels(t *testing.T) {
	cases := map[string]Mix{
		"1:0": ReadOnly,
		"2:1": Mix2to1,
		"1:1": Mix1to1,
		"1:3": Mix1to3,
		"0:1": WriteOnly,
		"3:1": {ReadFrac: 0.75},
		"1:2": {ReadFrac: 1.0 / 3},
	}
	for want, m := range cases {
		if got := m.Label(); got != want {
			t.Errorf("Label(%v) = %q, want %q", m.ReadFrac, got, want)
		}
	}
	if got := (Mix{ReadFrac: 0.37}).Label(); got != "37%r" {
		t.Errorf("odd mix label = %q", got)
	}
}

func TestPatternString(t *testing.T) {
	if Sequential.String() != "sequential" || Random.String() != "random" {
		t.Fatal("pattern strings wrong")
	}
}

func TestCurveInterpolation(t *testing.T) {
	c := NewCurve(CurvePoint{R: 0, V: 10}, CurvePoint{R: 1, V: 20})
	if v := c.At(0.5); v != 15 {
		t.Fatalf("At(0.5) = %v, want 15", v)
	}
	if v := c.At(-1); v != 10 {
		t.Fatalf("clamp low = %v, want 10", v)
	}
	if v := c.At(2); v != 20 {
		t.Fatalf("clamp high = %v, want 20", v)
	}
	if c.Max() != 20 {
		t.Fatalf("Max = %v", c.Max())
	}
}

func TestCurveUnsortedAnchors(t *testing.T) {
	c := NewCurve(CurvePoint{R: 1, V: 20}, CurvePoint{R: 0, V: 10}, CurvePoint{R: 0.5, V: 12})
	if v := c.At(0.25); math.Abs(v-11) > 1e-12 {
		t.Fatalf("At(0.25) = %v, want 11", v)
	}
}

func TestCurvePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":     func() { NewCurve() },
		"range":     func() { NewCurve(CurvePoint{R: 2, V: 1}) },
		"duplicate": func() { NewCurve(CurvePoint{R: 0.5, V: 1}, CurvePoint{R: 0.5, V: 2}) },
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

func TestLoadedLatencyFlatThenSpikes(t *testing.T) {
	ddr := NewDDRDomain("ddr")
	idle := ddr.latencyAt(0, ReadOnly)
	atKnee := ddr.latencyAt(ddr.Knee.At(1), ReadOnly)
	nearSat := ddr.latencyAt(0.97, ReadOnly)
	if atKnee > idle*1.15 {
		t.Errorf("latency at knee %.1f should be within 15%% of idle %.1f", atKnee, idle)
	}
	if nearSat < idle*4 {
		t.Errorf("latency near saturation %.1f should spike ≥4× idle %.1f", nearSat, idle)
	}
	// Monotone in utilization.
	prev := 0.0
	for u := 0.0; u <= 1.2; u += 0.01 {
		l := ddr.latencyAt(u, ReadOnly)
		if l < prev {
			t.Fatalf("latency not monotone at u=%.2f", u)
		}
		prev = l
	}
}

func TestKneeShiftsLeftWithWrites(t *testing.T) {
	// §3.3: "the latency-bandwidth knee-point shifts to the left as the
	// proportion of write operations ... increases."
	ddr := NewDDRDomain("ddr")
	if ddr.Knee.At(1) <= ddr.Knee.At(0) {
		t.Error("knee should be later for read-only than write-only")
	}
}

func TestRandomPatternNearNeutral(t *testing.T) {
	// Fig. 4(g,h): no significant disparity between random and
	// sequential. Penalty must be ≤5%.
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	seq := p.IdleLatency(ReadOnly)
	rnd := p.IdleLatency(ReadOnly.WithPattern(Random))
	if rnd < seq || rnd > seq*1.05 {
		t.Errorf("random latency %.1f vs sequential %.1f: want ≤5%% apart", rnd, seq)
	}
}

func TestPathValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty path did not panic")
		}
	}()
	NewPath("empty")
}

func TestPathString(t *testing.T) {
	p := NewPath("CXL-r", NewUPILink("upi"), NewCXLDevice("cxl"))
	if p.String() != "CXL-r[upi→cxl]" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestResourceValidate(t *testing.T) {
	bad := []*Resource{
		{Name: "", Peak: Flat(1)},
		{Name: "neg", IdleRead: -1, Peak: Flat(1)},
		{Name: "zero", Peak: Flat(0)},
	}
	for _, r := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%q: no panic", r.Name)
				}
			}()
			NewPath("p", r)
		}()
	}
}

func TestInterleavePlacement(t *testing.T) {
	top := NewPath("MMEM", NewDDRDomain("ddr"))
	low := NewPath("CXL", NewCXLDevice("cxl"))
	pl := Interleave(top, low, 3, 1)
	if math.Abs(pl[0].Weight-0.75) > 1e-12 || math.Abs(pl[1].Weight-0.25) > 1e-12 {
		t.Fatalf("3:1 interleave weights = %v, %v", pl[0].Weight, pl[1].Weight)
	}
	// Idle latency is the weighted average.
	want := 0.75*97 + 0.25*250.42
	if got := pl.IdleLatency(ReadOnly); math.Abs(got-want) > 0.1 {
		t.Fatalf("interleave idle latency = %v, want %v", got, want)
	}
}

func TestInterleavePanics(t *testing.T) {
	top := NewPath("MMEM", NewDDRDomain("ddr"))
	defer func() {
		if recover() == nil {
			t.Fatal("Interleave(0,0) did not panic")
		}
	}()
	Interleave(top, top, 0, 0)
}

func TestPlacementNormalization(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	pl := Placement{{Path: p, Weight: 2}, {Path: p, Weight: 0}}
	n := pl.normalized()
	if len(n) != 1 || n[0].Weight != 1 {
		t.Fatalf("normalized = %+v", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-weight placement did not panic")
		}
	}()
	Placement{{Path: p, Weight: 0}}.normalized()
}

func TestSolveOpenUnderload(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	res, util := SolveOpen([]OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: 10}})
	if math.Abs(res[0].Achieved-10) > 1e-9 {
		t.Fatalf("underload achieved = %v, want 10", res[0].Achieved)
	}
	if res[0].Latency < 97 || res[0].Latency > 110 {
		t.Fatalf("underload latency = %v, want near idle 97", res[0].Latency)
	}
	if u := util[p.Resources[0]]; math.Abs(u-10.0/67) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", u, 10.0/67)
	}
}

func TestSolveOpenSaturation(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	res, _ := SolveOpen([]OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: 100}})
	if res[0].Achieved > 67.1 {
		t.Fatalf("achieved %v exceeds peak 67", res[0].Achieved)
	}
	if res[0].Achieved < 60 {
		t.Fatalf("achieved %v too far below peak (no recession configured)", res[0].Achieved)
	}
	if res[0].Latency < 97*4 {
		t.Fatalf("saturated latency %v should spike well above idle", res[0].Latency)
	}
}

func TestSolveOpenOverloadRecession(t *testing.T) {
	// Remote write-heavy traffic loses bandwidth past saturation
	// (Fig. 3(b) 0:1 fold-back).
	remote := NewPath("MMEM-r", NewUPILink("upi"), NewDDRDomain("ddr"))
	peak := remote.PeakBandwidth(WriteOnly)
	atPeak, _ := SolveOpen([]OpenFlow{{Placement: SinglePath(remote), Mix: WriteOnly, Offered: peak}})
	over, _ := SolveOpen([]OpenFlow{{Placement: SinglePath(remote), Mix: WriteOnly, Offered: peak * 1.4}})
	if over[0].Achieved >= atPeak[0].Achieved {
		t.Fatalf("overload achieved %v should recede below peak-load %v", over[0].Achieved, atPeak[0].Achieved)
	}
	if over[0].Latency <= atPeak[0].Latency {
		t.Fatal("overload latency should exceed peak-load latency")
	}
}

func TestSolveOpenSharedContention(t *testing.T) {
	ddr := NewDDRDomain("ddr")
	p := NewPath("MMEM", ddr)
	solo, _ := SolveOpen([]OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: 30}})
	pair, _ := SolveOpen([]OpenFlow{
		{Placement: SinglePath(p), Mix: ReadOnly, Offered: 30},
		{Placement: SinglePath(p), Mix: ReadOnly, Offered: 30},
	})
	if pair[0].Latency <= solo[0].Latency {
		t.Fatal("sharing a device must raise latency")
	}
}

func TestSolveClosedConverges(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	res, _ := SolveClosed([]ClosedFlow{{
		Placement: SinglePath(p), Mix: ReadOnly,
		Threads: 4, MLP: 8, AccessBytes: 64,
	}})
	// 4 threads × 8 MLP × 64 B at ~100 ns ⇒ ≈20 GB/s, well under peak.
	want := 4 * 8 * 64 / res[0].Latency
	if math.Abs(res[0].Achieved-want)/want > 0.01 {
		t.Fatalf("closed-loop identity violated: achieved %v, want %v", res[0].Achieved, want)
	}
	if res[0].Latency < 97 {
		t.Fatalf("latency %v below idle", res[0].Latency)
	}
}

func TestSolveClosedSaturates(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	many, _ := SolveClosed([]ClosedFlow{{
		Placement: SinglePath(p), Mix: ReadOnly,
		Threads: 64, MLP: 10, AccessBytes: 64,
	}})
	if many[0].Achieved > 67.1 {
		t.Fatalf("closed-loop achieved %v exceeds device peak", many[0].Achieved)
	}
	if many[0].Achieved < 58 {
		t.Fatalf("closed-loop achieved %v should approach peak 67", many[0].Achieved)
	}
}

func TestSolveClosedScalingThenPlateau(t *testing.T) {
	// Throughput should scale ~linearly at low thread counts then
	// plateau at device peak — the LLM Fig. 10(a) mechanism.
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	bw := func(threads int) float64 {
		res, _ := SolveClosed([]ClosedFlow{{
			Placement: SinglePath(p), Mix: ReadOnly,
			Threads: threads, MLP: 8, AccessBytes: 64, ThinkNs: 30,
		}})
		return res[0].Achieved
	}
	b1, b2, b64, b96 := bw(1), bw(2), bw(64), bw(96)
	if r := b2 / b1; r < 1.9 {
		t.Errorf("low-load scaling 1→2 threads = %.2f×, want ≈2×", r)
	}
	if r := b96 / b64; r > 1.1 {
		t.Errorf("saturated scaling 64→96 threads = %.2f×, want ≈1×", r)
	}
}

func TestSolveClosedThinkTimeLimitsThroughput(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	fast, _ := SolveClosed([]ClosedFlow{{Placement: SinglePath(p), Mix: ReadOnly, Threads: 2, MLP: 4, AccessBytes: 64}})
	slow, _ := SolveClosed([]ClosedFlow{{Placement: SinglePath(p), Mix: ReadOnly, Threads: 2, MLP: 4, AccessBytes: 64, ThinkNs: 500}})
	if slow[0].Achieved >= fast[0].Achieved {
		t.Fatal("think time should reduce achieved bandwidth")
	}
}

// Property: for any single open flow, achieved ≤ offered and achieved ≤
// peak(mix)·(1+ε), and latency ≥ idle.
func TestPropertyOpenFlowBounds(t *testing.T) {
	ddr := NewDDRDomain("ddr")
	cxl := NewCXLDevice("cxl")
	mmem := NewPath("MMEM", ddr)
	cpath := NewPath("CXL", cxl)
	f := func(rFrac, offered float64, interleaveTop uint8) bool {
		r := math.Abs(math.Mod(rFrac, 1))
		off := math.Abs(math.Mod(offered, 150))
		if off == 0 {
			off = 1
		}
		n := int(interleaveTop%4) + 1
		pl := Interleave(mmem, cpath, n, 1)
		mix := Mix{ReadFrac: r}
		res, _ := SolveOpen([]OpenFlow{{Placement: pl, Mix: mix, Offered: off}})
		if res[0].Achieved > off+1e-9 {
			return false
		}
		if res[0].Latency < pl.IdleLatency(mix)-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: closed-loop achieved bandwidth is monotone non-decreasing in
// thread count (more demand never yields less delivered work for a
// non-receding local device).
func TestPropertyClosedMonotoneThreads(t *testing.T) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	prev := 0.0
	for threads := 1; threads <= 128; threads *= 2 {
		res, _ := SolveClosed([]ClosedFlow{{
			Placement: SinglePath(p), Mix: ReadOnly,
			Threads: threads, MLP: 8, AccessBytes: 64,
		}})
		if res[0].Achieved+1e-6 < prev {
			t.Fatalf("achieved dropped from %v to %v at %d threads", prev, res[0].Achieved, threads)
		}
		prev = res[0].Achieved
	}
}

func BenchmarkSolveOpen(b *testing.B) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	flows := []OpenFlow{{Placement: SinglePath(p), Mix: ReadOnly, Offered: 30}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SolveOpen(flows)
	}
}

func BenchmarkSolveClosed(b *testing.B) {
	p := NewPath("MMEM", NewDDRDomain("ddr"))
	flows := []ClosedFlow{{Placement: SinglePath(p), Mix: ReadOnly, Threads: 16, MLP: 8, AccessBytes: 64}}
	for i := 0; i < b.N; i++ {
		SolveClosed(flows)
	}
}
