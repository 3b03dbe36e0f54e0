// Package elastic models the paper's elastic-compute analysis (§4.3):
// the vCPU-to-memory provisioning gap of upcoming high-core-count Xeons
// (Table 2), the revenue stranded when a server cannot back every vCPU
// with the canonical 1:4 vCPU:GiB ratio, and how CXL expansion recovers
// it by selling the remaining vCPUs on (slightly slower) CXL-backed
// memory at a discount.
package elastic

import "fmt"

// CanonicalGiBPerVCPU is the "optimal" vCPU:memory ratio the paper uses
// (1:4, per AWS instance guidelines).
const CanonicalGiBPerVCPU = 4

// Processor is one row of Table 2.
type Processor struct {
	Year        string
	CPU         string
	MaxVCPU     int
	Channels    string // memory channels per socket
	MaxMemoryTB float64
	// PublishedRequiredTB is the paper's printed "Required Memory (1:4)"
	// value. The paper mixes decimal and binary units across rows
	// (0.768 TB is 192×4 decimal GB; 4.5 TB is 1152×4 GiB in TiB), so
	// we keep the printed column verbatim and compute consistently in
	// RequiredMemoryTB.
	PublishedRequiredTB float64
}

// RequiredMemoryTB is the memory needed to sell every vCPU at 1:4, in
// TiB (computed consistently in binary units).
func (p Processor) RequiredMemoryTB() float64 {
	return float64(p.MaxVCPU) * CanonicalGiBPerVCPU / 1024
}

// MemoryGapTB is how far the platform falls short of the 1:4 requirement
// (0 when it does not).
func (p Processor) MemoryGapTB() float64 {
	gap := p.RequiredMemoryTB() - p.MaxMemoryTB
	if gap < 0 {
		return 0
	}
	return gap
}

// SellableVCPUFrac is the fraction of vCPUs sellable at the canonical
// ratio given the platform memory ceiling.
func (p Processor) SellableVCPUFrac() float64 {
	req := p.RequiredMemoryTB()
	if req <= p.MaxMemoryTB {
		return 1
	}
	return p.MaxMemoryTB / req
}

// Table2 returns the Intel processor series rows of Table 2.
func Table2() []Processor {
	return []Processor{
		{Year: "2021", CPU: "IceLake-SP", MaxVCPU: 160, Channels: "8xDDR4-3200", MaxMemoryTB: 4, PublishedRequiredTB: 0.64},
		{Year: "2022 (delayed)", CPU: "Sapphire Rapids", MaxVCPU: 192, Channels: "8xDDR5-4800", MaxMemoryTB: 4, PublishedRequiredTB: 0.768},
		{Year: "2023 (delayed)", CPU: "Emerald Rapids", MaxVCPU: 256, Channels: "8xDDR5-6400", MaxMemoryTB: 4, PublishedRequiredTB: 1},
		{Year: "2024+", CPU: "Sierra Forest", MaxVCPU: 1152, Channels: "12", MaxMemoryTB: 4, PublishedRequiredTB: 4.5},
		{Year: "2025+", CPU: "Clearwater Forest", MaxVCPU: 1152, Channels: "TBD", MaxMemoryTB: 4, PublishedRequiredTB: 4.5},
	}
}

// RevenueModel is the §4.3.2 analysis for one under-provisioned server.
type RevenueModel struct {
	// GiBPerVCPU is the server's actual provisioning ratio (the paper's
	// example: 1:3 ⇒ 3).
	GiBPerVCPU float64
	// CXLDiscount is the price discount offered on CXL-backed instances
	// (paper example: 20%).
	CXLDiscount float64
}

// PaperExample returns the §4.3.2 worked example: 1:3 provisioning and a
// 20% discount, which covers the 12.5% CXL penalty of Fig. 8(b).
func PaperExample() RevenueModel {
	return RevenueModel{GiBPerVCPU: 3, CXLDiscount: 0.20}
}

// validate panics on nonsensical parameters.
func (m RevenueModel) validate() {
	if m.GiBPerVCPU <= 0 || m.GiBPerVCPU > CanonicalGiBPerVCPU {
		panic(fmt.Sprintf("elastic: GiBPerVCPU %v outside (0,%d]", m.GiBPerVCPU, CanonicalGiBPerVCPU))
	}
	if m.CXLDiscount < 0 || m.CXLDiscount >= 1 {
		panic("elastic: discount outside [0,1)")
	}
}

// SellableFrac is the fraction of vCPUs sellable at 1:4 without CXL
// (paper example: 75%).
func (m RevenueModel) SellableFrac() float64 {
	m.validate()
	return m.GiBPerVCPU / CanonicalGiBPerVCPU
}

// StrandedFrac is the revenue fraction lost without CXL (paper: 25%).
func (m RevenueModel) StrandedFrac() float64 { return 1 - m.SellableFrac() }

// RecoveredRevenueFrac is the extra revenue (relative to the non-CXL
// baseline revenue) from selling the stranded vCPUs on CXL memory at the
// discount: stranded × (1−discount) / sellable. The paper's example
// yields 0.25×0.8/0.75 ≈ 26.7% ("a 27% improvement in total revenue").
func (m RevenueModel) RecoveredRevenueFrac() float64 {
	m.validate()
	return m.StrandedFrac() * (1 - m.CXLDiscount) / m.SellableFrac()
}
