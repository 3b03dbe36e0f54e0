package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValidation(t *testing.T) {
	bad := []Params{
		{Rd: 0.5, Rc: 0.4, C: 1, Rt: 1},
		{Rd: 10, Rc: 0.5, C: 1, Rt: 1},
		{Rd: 5, Rc: 8, C: 1, Rt: 1}, // CXL faster than DRAM
		{Rd: 10, Rc: 8, C: 0, Rt: 1},
		{Rd: 10, Rc: 8, C: 1, Rt: 0},
		{Rd: 10, Rc: 8, C: 1, Rt: 1, FixedCostFrac: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
		if _, err := p.ServerRatio(); err == nil {
			t.Errorf("case %d: ServerRatio should propagate validation error", i)
		}
	}
}

func TestFixedCostsReduceSaving(t *testing.T) {
	base, _ := PaperExample().TCOSaving()
	withFixed := PaperExample()
	withFixed.FixedCostFrac = 0.05
	s, err := withFixed.TCOSaving()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(base-s-0.05) > 1e-9 {
		t.Fatalf("fixed costs should subtract exactly: %v vs %v", base, s)
	}
}

func TestTimesConsistentWithRatio(t *testing.T) {
	// The server ratio must equate T_baseline and T_cxl for working
	// sets larger than cluster memory.
	p := PaperExample()
	ratio, _ := p.ServerRatio()
	const (
		w = 1000.0
		d = 10.0
		n = 20.0
	)
	tb := p.BaselineTime(w, d, n)
	tc := p.CXLTime(w, d, n*ratio)
	if math.Abs(tb-tc)/tb > 1e-9 {
		t.Fatalf("T_baseline=%v != T_cxl=%v at the model's server ratio", tb, tc)
	}
}

func TestTimesClampAtWorkingSet(t *testing.T) {
	p := PaperExample()
	// Everything fits in memory: time = W/Rd, no SSD segment.
	if tb := p.BaselineTime(100, 10, 50); math.Abs(tb-100.0/p.Rd) > 1e-9 {
		t.Fatalf("fully-cached baseline time = %v, want %v", tb, 100.0/p.Rd)
	}
	// CXL server with more memory than W: no CXL or SSD segment either.
	if tc := p.CXLTime(100, 200, 1); math.Abs(tc-100.0/p.Rd) > 1e-9 {
		t.Fatalf("fully-cached CXL time = %v", tc)
	}
}

func TestDegenerateDenominator(t *testing.T) {
	// Rc barely above 1 with small Rd can make the denominator
	// non-positive → ErrNoAdvantage rather than a garbage ratio.
	p := Params{Rd: 1.05, Rc: 1.01, C: 0.01, Rt: 1}
	if _, err := p.ServerRatio(); err == nil {
		t.Log("configuration unexpectedly valid; checking positivity instead")
		r, _ := p.ServerRatio()
		if r <= 0 {
			t.Fatal("non-positive ratio returned without error")
		}
	}
}

func TestSweep(t *testing.T) {
	pts := PaperExample().Sweep([]float64{0.5, 1, 2, 4, 8})
	if len(pts) != 5 {
		t.Fatalf("want 5 sweep points")
	}
	// More CXL per server (smaller C) means fewer servers needed:
	// server ratio should increase with C.
	for i := 1; i < len(pts); i++ {
		if !pts[i].Valid || !pts[i-1].Valid {
			continue
		}
		if pts[i].ServerRatio <= pts[i-1].ServerRatio {
			t.Errorf("server ratio should grow with C: %v", pts)
		}
	}
}

// Property: for valid parameter ranges, the server ratio is in (0, 1] —
// a CXL server never needs MORE servers than baseline under this model —
// and TCO saving is bounded above by 1.
func TestPropertyRatioBounds(t *testing.T) {
	f := func(rdRaw, rcRaw, cRaw uint8) bool {
		rd := 2 + float64(rdRaw%50)   // 2..51
		rc := 1.5 + float64(rcRaw%40) // 1.5..41.5
		if rc > rd {
			rc = rd
		}
		c := 0.25 * float64(1+cRaw%32) // 0.25..8
		p := Params{Rd: rd, Rc: rc, C: c, Rt: 1}
		ratio, err := p.ServerRatio()
		if err != nil {
			return true // degenerate params may error; that's fine
		}
		if ratio <= 0 || ratio > 1+1e-9 {
			return false
		}
		s, err := p.TCOSaving()
		return err == nil && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Regression: NaN compares false against every threshold in Validate's
// switch, so before the finiteness guard a NaN parameter passed
// validation and ServerRatio returned NaN with a nil error.
func TestValidateNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := PaperExample()
	cases := []struct {
		name   string
		mutate func(*Params)
	}{
		{"NaN Rd", func(p *Params) { p.Rd = nan }},
		{"NaN Rc", func(p *Params) { p.Rc = nan }},
		{"NaN C", func(p *Params) { p.C = nan }},
		{"NaN Rt", func(p *Params) { p.Rt = nan }},
		{"NaN FixedCostFrac", func(p *Params) { p.FixedCostFrac = nan }},
		{"+Inf Rd", func(p *Params) { p.Rd = inf }},
		{"+Inf C", func(p *Params) { p.C = inf }},
		{"-Inf Rc", func(p *Params) { p.Rc = -inf }},
		{"-Inf Rt", func(p *Params) { p.Rt = -inf }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base
			tc.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate accepted a non-finite parameter")
			}
			r, err := p.ServerRatio()
			if err == nil {
				t.Errorf("ServerRatio returned %v with nil error", r)
			}
			if math.IsNaN(r) {
				t.Error("ServerRatio leaked NaN")
			}
			if _, err := p.TCOSaving(); err == nil {
				t.Error("TCOSaving should propagate the error")
			}
		})
	}
}

// The denominator guard must catch float overflow from validated (finite
// but huge) inputs: +Inf denominators and NaN from Inf−Inf both yield
// descriptive errors instead of 0 or NaN ratios.
func TestDenominatorBoundary(t *testing.T) {
	cases := []struct {
		name string
		p    Params
	}{
		// Rc·Rd overflows to +Inf ⇒ den = +Inf ⇒ num/den would be NaN.
		{"den +Inf", Params{Rd: 1e308, Rc: 1e308, C: 1, Rt: 1}},
		// Rc·Rd·(C+1) and C·Rc both overflow ⇒ den = Inf−Inf = NaN.
		{"den NaN", Params{Rd: 2, Rc: 2, C: 1e308, Rt: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatalf("params should pass validation (finite): %v", err)
			}
			r, err := tc.p.ServerRatio()
			if err == nil {
				t.Fatalf("ServerRatio = %v with nil error; want denominator guard to trip", r)
			}
			if r != 0 {
				t.Errorf("errored ServerRatio should return 0, got %v", r)
			}
		})
	}
}

// With validated parameters (Rd>1, Rc>1, C>0, no overflow) the
// denominator is algebraically positive: it rewrites as
// C·Rc·(Rd−1) + Rd·(Rc−1), a sum of two positive terms.
func TestDenominatorPositiveForValidParams(t *testing.T) {
	f := func(rdRaw, rcRaw, cRaw uint16) bool {
		rd := 1 + float64(rdRaw%1000)/100 + 0.01 // 1.01..11
		rc := 1 + float64(rcRaw%1000)/100 + 0.01
		if rc > rd {
			rc = rd
		}
		c := float64(1+cRaw%1000) / 100 // 0.01..10
		p := Params{Rd: rd, Rc: rc, C: c, Rt: 1}
		if err := p.Validate(); err != nil {
			return true
		}
		r, err := p.ServerRatio()
		return err == nil && r > 0 && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkServerRatio(b *testing.B) {
	p := PaperExample()
	for i := 0; i < b.N; i++ {
		if _, err := p.ServerRatio(); err != nil {
			b.Fatal(err)
		}
	}
}
