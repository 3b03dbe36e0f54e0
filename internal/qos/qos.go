// Package qos implements MT²-style memory-bandwidth regulation (the
// paper's reference [31]) over the cxlsim device model: latency-critical
// tenants share channels with best-effort bandwidth hogs, and a
// regulator throttles the hogs so the shared devices stay below their
// contention knee — the operational answer to the paper's §5.3 warning
// that tiering policies ignore bandwidth contention.
package qos

import (
	"fmt"

	"cxlsim/internal/memsim"
)

// Class partitions tenants by service objective.
type Class int

// Tenant classes.
const (
	// LatencyCritical tenants are never throttled; the regulator exists
	// to protect their loaded latency.
	LatencyCritical Class = iota
	// BestEffort tenants absorb all throttling.
	BestEffort
)

// String names the class.
func (c Class) String() string {
	if c == BestEffort {
		return "best-effort"
	}
	return "latency-critical"
}

// Tenant is one workload sharing the memory system.
type Tenant struct {
	Name      string
	Class     Class
	Placement memsim.Placement
	Mix       memsim.Mix
	// DemandGBps is the tenant's unthrottled offered load.
	DemandGBps float64
}

// Allocation is the regulator's decision for one tenant.
type Allocation struct {
	Tenant      Tenant
	GrantedGBps float64 // post-throttle offered load
	Achieved    float64
	LatencyNs   float64
}

// Regulator throttles best-effort traffic to keep every shared resource
// at or below TargetUtil (a fraction of its mix-specific peak; set it at
// or under the device knee to keep latency flat).
type Regulator struct {
	// TargetUtil is the utilization ceiling (default 0.75, the low edge
	// of the paper's measured 75–83% knee band).
	TargetUtil float64
	// MinGrantGBps floors each best-effort grant so throttling cannot
	// starve a tenant entirely (default 0.5 GB/s).
	MinGrantGBps float64
}

func (r Regulator) params() (float64, float64) {
	target := r.TargetUtil
	if target == 0 {
		target = 0.75
	}
	if target <= 0 || target >= 1 {
		panic(fmt.Sprintf("qos: TargetUtil %v outside (0,1)", target))
	}
	minGrant := r.MinGrantGBps
	if minGrant == 0 {
		minGrant = 0.5
	}
	return target, minGrant
}

// Regulate computes grants: latency-critical demand passes untouched;
// best-effort grants are scaled down uniformly (max-min fairness across
// equal scaling) until every shared resource sits at or below the
// target utilization. Returns allocations index-aligned with tenants.
func (r Regulator) Regulate(tenants []Tenant) []Allocation {
	target, minGrant := r.params()
	for _, t := range tenants {
		if t.DemandGBps < 0 {
			panic(fmt.Sprintf("qos: tenant %q has negative demand", t.Name))
		}
	}

	// Binary search the best-effort scale factor: utilization is
	// monotone in the scale, so the largest feasible scale is found in
	// ~40 halvings.
	feasible := func(scale float64) (bool, []memsim.OpenFlow) {
		flows := make([]memsim.OpenFlow, len(tenants))
		for i, t := range tenants {
			offered := t.DemandGBps
			if t.Class == BestEffort {
				offered *= scale
				if offered < minGrant && t.DemandGBps >= minGrant {
					offered = minGrant
				}
			}
			flows[i] = memsim.OpenFlow{Placement: t.Placement, Mix: t.Mix, Offered: offered}
		}
		_, util := memsim.SolveOpen(flows)
		for _, u := range util {
			if u > target+1e-9 {
				return false, flows
			}
		}
		return true, flows
	}

	lo, hi := 0.0, 1.0
	if ok, _ := feasible(1); ok {
		lo = 1
	} else {
		for i := 0; i < 40; i++ {
			mid := (lo + hi) / 2
			if ok, _ := feasible(mid); ok {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	_, flows := feasible(lo)
	results, _ := memsim.SolveOpen(flows)

	out := make([]Allocation, len(tenants))
	for i, t := range tenants {
		out[i] = Allocation{
			Tenant:      t,
			GrantedGBps: flows[i].Offered,
			Achieved:    results[i].Achieved,
			LatencyNs:   results[i].Latency,
		}
	}
	return out
}

// Unregulated evaluates the same tenants with no throttling, for
// comparison.
func Unregulated(tenants []Tenant) []Allocation {
	flows := make([]memsim.OpenFlow, len(tenants))
	for i, t := range tenants {
		flows[i] = memsim.OpenFlow{Placement: t.Placement, Mix: t.Mix, Offered: t.DemandGBps}
	}
	results, _ := memsim.SolveOpen(flows)
	out := make([]Allocation, len(tenants))
	for i, t := range tenants {
		out[i] = Allocation{
			Tenant:      t,
			GrantedGBps: t.DemandGBps,
			Achieved:    results[i].Achieved,
			LatencyNs:   results[i].Latency,
		}
	}
	return out
}
