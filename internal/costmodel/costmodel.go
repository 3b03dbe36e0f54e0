// Package costmodel implements the paper's Abstract Cost Model (§6,
// Table 3): a TCO estimator for CXL adoption that needs only
// microbenchmark-derived relative throughputs — no internal or sensitive
// fleet data.
//
// The model splits a capacity-bound workload's execution into segments
// served from main memory, CXL memory, and SSD spill, equates the
// execution time of a baseline cluster with an (N_cxl-server) CXL
// cluster, and solves for the server-count ratio:
//
//	N_cxl / N_baseline = C·R_c·(R_d − 1) / (R_c·R_d·(C+1) − C·R_c − R_d)
//
//	TCO_saving = 1 − (N_cxl / N_baseline) · R_t
package costmodel

import (
	"errors"
	"fmt"
	"math"
)

// Params are the Table 3 parameters.
type Params struct {
	// Rd is the relative throughput with the whole working set in main
	// memory, normalized to the all-SSD baseline Ps=1. Example: 10.
	Rd float64
	// Rc is the relative throughput with the whole working set in CXL
	// memory, normalized to Ps=1. Example: 8.
	Rc float64
	// C is the ratio of main-memory to CXL capacity on a CXL server
	// (2 ⇒ the server has 2× more MMEM than CXL). Example: 2.
	C float64
	// Rt is the relative TCO of a CXL server vs a baseline server
	// (1.1 ⇒ 10% more expensive). Example: 1.1.
	Rt float64
	// FixedCostFrac optionally adds platform fixed costs (controllers,
	// switches, PCBs, cables — §6's "extending" discussion) as a
	// fraction of baseline cluster TCO.
	FixedCostFrac float64
}

// PaperExample returns the worked example of §6: Rd=10, Rc=8, C=2,
// Rt=1.1 ⇒ server ratio 67.29%, TCO saving 25.98%.
func PaperExample() Params {
	return Params{Rd: 10, Rc: 8, C: 2, Rt: 1.1}
}

// Validate checks parameter sanity. Non-finite fields are rejected
// explicitly: NaN compares false against every threshold below, so
// without this guard a NaN parameter would sail through the switch and
// poison ServerRatio's closed form with a nil error attached.
func (p Params) Validate() error {
	fields := []struct {
		name string
		v    float64
	}{
		{"Rd", p.Rd}, {"Rc", p.Rc}, {"C", p.C}, {"Rt", p.Rt},
		{"FixedCostFrac", p.FixedCostFrac},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("costmodel: %s=%v must be finite", f.name, f.v)
		}
	}
	switch {
	case p.Rd <= 1:
		return fmt.Errorf("costmodel: Rd=%v must exceed 1 (memory beats SSD)", p.Rd)
	case p.Rc <= 1:
		return fmt.Errorf("costmodel: Rc=%v must exceed 1", p.Rc)
	case p.Rc > p.Rd:
		return fmt.Errorf("costmodel: Rc=%v cannot exceed Rd=%v", p.Rc, p.Rd)
	case p.C <= 0:
		return fmt.Errorf("costmodel: C=%v must be positive", p.C)
	case p.Rt <= 0:
		return fmt.Errorf("costmodel: Rt=%v must be positive", p.Rt)
	case p.FixedCostFrac < 0:
		return fmt.Errorf("costmodel: FixedCostFrac=%v must be non-negative", p.FixedCostFrac)
	}
	return nil
}

// ErrNoAdvantage is returned when the model degenerates (the CXL cluster
// cannot match baseline performance with fewer resources).
var ErrNoAdvantage = errors.New("costmodel: configuration yields no server reduction")

// ServerRatio returns N_cxl / N_baseline: the fraction of servers a CXL
// cluster needs to match the baseline cluster's performance.
func (p Params) ServerRatio() (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	num := p.C * p.Rc * (p.Rd - 1)
	// Guard the closed-form denominator R_c·R_d·(C+1) − C·R_c − R_d.
	// `!(den > 0)` instead of `den <= 0`: it also rejects NaN (every
	// comparison with NaN is false), so a degenerate intermediate can
	// never yield a garbage ratio with a nil error. Validated inputs are
	// finite, but huge C/Rc/Rd products can still overflow to +Inf, whose
	// difference is NaN.
	den := p.Rc*p.Rd*(p.C+1) - p.C*p.Rc - p.Rd
	if !(den > 0) {
		return 0, fmt.Errorf("%w (denominator %v with Rd=%v Rc=%v C=%v)",
			ErrNoAdvantage, den, p.Rd, p.Rc, p.C)
	}
	if math.IsInf(den, 1) {
		return 0, fmt.Errorf("costmodel: denominator overflows with Rd=%v Rc=%v C=%v", p.Rd, p.Rc, p.C)
	}
	return num / den, nil
}

// TCOSaving returns 1 − TCO_cxl/TCO_baseline, including optional fixed
// costs. Negative values mean CXL adoption costs more.
func (p Params) TCOSaving() (float64, error) {
	ratio, err := p.ServerRatio()
	if err != nil {
		return 0, err
	}
	return 1 - ratio*p.Rt - p.FixedCostFrac, nil
}

// BaselineTime returns T_baseline for a working set W and per-server
// memory D with n baseline servers — the §6 approximation (time units of
// the normalized SSD throughput). Exposed so experiments can check the
// algebra against direct simulation.
func (p Params) BaselineTime(w, d float64, n float64) float64 {
	inMem := n * d
	if inMem > w {
		inMem = w
	}
	return inMem/p.Rd + (w - inMem)
}

// CXLTime returns T_cxl for n CXL servers: segments in MMEM, in CXL
// (capacity D/C per server), and spilled to SSD.
func (p Params) CXLTime(w, d float64, n float64) float64 {
	mem := n * d
	cxl := n * d / p.C
	if mem > w {
		mem = w
	}
	if mem+cxl > w {
		cxl = w - mem
	}
	return mem/p.Rd + cxl/(p.Rc) + (w - mem - cxl)
}

// Sweep evaluates TCO saving across a grid of C values, for costcalc
// -sweep.
func (p Params) Sweep(cs []float64) []SweepPoint {
	out := make([]SweepPoint, 0, len(cs))
	for _, c := range cs {
		q := p
		q.C = c
		pt := SweepPoint{C: c}
		if r, err := q.ServerRatio(); err == nil {
			pt.ServerRatio = r
			if s, err := q.TCOSaving(); err == nil {
				pt.TCOSaving = s
				pt.Valid = true
			}
		}
		out = append(out, pt)
	}
	return out
}

// SweepPoint is one Sweep result.
type SweepPoint struct {
	C           float64
	ServerRatio float64
	TCOSaving   float64
	Valid       bool
}
