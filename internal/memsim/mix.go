// Package memsim models the memory hierarchy of the paper's testbed — DDR5
// channel groups, the AsteraLabs A1000 ASIC CXL expander behind PCIe Gen5,
// and the UPI cross-socket interconnect — as shared queueing resources with
// load-dependent latency.
//
// Everything in this package is calibrated against the paper's own
// measurements (§3.2–§3.3): idle latencies (97 ns local DDR, 130 ns remote
// DDR, 250.42 ns local CXL, 485 ns remote CXL), per-mix peak bandwidths
// (67 / 54.6 / 56.7 / 20.4 GB/s), knee points (75–83% of peak), and the
// Remote Snoop Filter bandwidth clamp on cross-socket CXL access.
//
// Two solvers expose the model:
//
//   - SolveOpen: offered-load flows (an MLC-style sweep) — reports achieved
//     bandwidth and loaded latency, including the overload regime where
//     write-heavy remote traffic loses bandwidth as load rises.
//   - SolveClosed: closed-loop flows (threads × MLP × access size) — finds
//     the throughput/latency fixed point, which is how the application
//     models (KV store, Spark, LLM) consume the hierarchy.
//
// Bandwidth unit: 1.0 == 1 GB/s == 1 byte/ns (with GB = 1e9 bytes), so
// latency math in nanoseconds and bandwidth math compose without
// conversion constants.
package memsim

import "fmt"

// Pattern is the spatial access pattern. The paper finds no significant
// performance disparity between sequential and random access at 64 B
// granularity (Fig. 4(g,h)); we model random as a small constant idle
// penalty so the comparison is representable but near-neutral.
type Pattern int

// Access patterns.
const (
	Sequential Pattern = iota
	Random
)

// String names the pattern.
func (p Pattern) String() string {
	if p == Random {
		return "random"
	}
	return "sequential"
}

// randomIdlePenalty multiplies idle latency under Random access.
const randomIdlePenalty = 1.02

// Mix describes a traffic mix the way the paper labels its figures: a
// read:write ratio plus the access pattern. Writes are non-temporal
// (streaming stores), matching the MLC workloads in §3.
type Mix struct {
	ReadFrac float64 // fraction of accesses that are reads, in [0,1]
	Pattern  Pattern
}

// Canonical mixes used throughout the paper's figures.
var (
	ReadOnly  = Mix{ReadFrac: 1}
	Mix2to1   = Mix{ReadFrac: 2.0 / 3}
	Mix1to1   = Mix{ReadFrac: 0.5}
	Mix1to3   = Mix{ReadFrac: 0.25}
	WriteOnly = Mix{ReadFrac: 0}
)

// WithPattern returns a copy of the mix with the given pattern.
func (m Mix) WithPattern(p Pattern) Mix {
	m.Pattern = p
	return m
}

// Label renders the mix as the paper writes it ("1:0", "2:1", ...).
func (m Mix) Label() string {
	switch {
	case m.ReadFrac >= 0.999:
		return "1:0"
	case m.ReadFrac <= 0.001:
		return "0:1"
	}
	// Render common ratios exactly; otherwise as a percentage.
	type ratio struct {
		r, w int
		f    float64
	}
	for _, c := range []ratio{{2, 1, 2.0 / 3}, {1, 1, 0.5}, {1, 2, 1.0 / 3}, {1, 3, 0.25}, {3, 1, 0.75}} {
		if abs(m.ReadFrac-c.f) < 1e-6 {
			return fmt.Sprintf("%d:%d", c.r, c.w)
		}
	}
	return fmt.Sprintf("%.0f%%r", m.ReadFrac*100)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// StandardMixes returns the figure sweep order used by Figs. 3 and 4.
func StandardMixes() []Mix {
	return []Mix{ReadOnly, Mix2to1, Mix1to1, Mix1to3, WriteOnly}
}
