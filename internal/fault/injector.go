package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"cxlsim/internal/memsim"
	"cxlsim/internal/obs"
	"cxlsim/internal/sim"
	"cxlsim/internal/topology"
)

// Injector owns a materialized fault list against one machine. It
// resolves each fault's target substring to concrete resources at build
// time, snapshots each resource's calibration lazily — at the first
// fault transition touching it — and on every transition (fault starts
// or clears) recomputes each touched resource from that baseline so
// overlapping faults compose multiplicatively and clear cleanly.
//
// The lazy snapshot is what makes injectors nest: a second injector
// built over the same machine captures whatever state is in force when
// its first fault fires, so stacked injectors compose and unwind
// correctly as long as they clear in LIFO order (the inner injector
// resets before the outer). Clearing an outer injector while an inner
// one is active leaves the inner's baseline stale — don't do that.
//
// Transitions run inside the owning sim.Engine's event loop (Install) or
// all at once before serving starts (ApplyAll); the Degraded/ActiveCount
// read side is safe from other goroutines only after transitions stop,
// except ActiveCount which is atomic.
type Injector struct {
	schedule *Schedule
	machine  *topology.Machine
	faults   []Fault
	targets  [][]*memsim.Resource // per fault, resolved at build time

	base   map[*memsim.Resource]memsim.State
	active map[*memsim.Resource]map[int]bool // resource → live fault indices

	liveFaults  map[int]bool // fault index → currently applied
	activeCount atomic.Int64

	onChange []func(now sim.Time)

	injected *obs.CounterVec
	cleared  *obs.CounterVec
	tracer   *obs.Tracer
}

// NewInjector materializes the schedule against the machine. Every fault
// must match at least one resource name (case-insensitive substring over
// topology.Machine.Resources()); a dangling target is an error so typos
// fail instead of silently injecting nothing.
func NewInjector(s *Schedule, m *topology.Machine) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		schedule:   s,
		machine:    m,
		faults:     s.Materialize(),
		base:       map[*memsim.Resource]memsim.State{},
		active:     map[*memsim.Resource]map[int]bool{},
		liveFaults: map[int]bool{},
	}
	all := m.Resources()
	for _, f := range inj.faults {
		var hit []*memsim.Resource
		needle := strings.ToLower(f.Target)
		for _, r := range all {
			if strings.Contains(strings.ToLower(r.Name), needle) {
				hit = append(hit, r)
			}
		}
		if len(hit) == 0 {
			return nil, fmt.Errorf("fault: target %q matches no resource on %s (have %s)",
				f.Target, m.Config.Name, strings.Join(resourceNames(all), ", "))
		}
		inj.targets = append(inj.targets, hit)
		for _, r := range hit {
			// The baseline snapshot is deliberately NOT taken here — see
			// the type comment on nesting. Only the active map is eager,
			// because Degraded/DegradedResources read it before any
			// transition happens.
			if _, ok := inj.active[r]; !ok {
				inj.active[r] = map[int]bool{}
			}
		}
	}
	return inj, nil
}

func resourceNames(rs []*memsim.Resource) []string {
	names := make([]string, len(rs))
	for i, r := range rs {
		names[i] = r.Name
	}
	return names
}

// Schedule returns the schedule this injector was built from.
func (inj *Injector) Schedule() *Schedule { return inj.schedule }

// Faults returns the materialized, time-sorted fault list.
func (inj *Injector) Faults() []Fault { return inj.faults }

// Machine returns the machine whose resources this injector perturbs.
func (inj *Injector) Machine() *topology.Machine { return inj.machine }

// OnChange registers a callback invoked (in event order, inside the
// engine loop) after any fault starts or clears — e.g. to re-solve
// cached latencies. Register before Install/ApplyAll.
func (inj *Injector) OnChange(fn func(now sim.Time)) {
	inj.onChange = append(inj.onChange, fn)
}

// Instrument publishes fault counters into the registry: injections and
// clears by kind, and a gauge of currently active faults.
func (inj *Injector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	inj.injected = reg.CounterVec(obs.MetricFaultInjected, "Faults injected, by kind.", "kind")
	inj.cleared = reg.CounterVec(obs.MetricFaultCleared, "Faults cleared, by kind.", "kind")
	reg.GaugeFunc(obs.MetricFaultActive, "Currently active faults.",
		func() float64 { return float64(inj.activeCount.Load()) })
}

// SetTracer records every fault transition as an instant on the "fault"
// trace track, so alert firings and latency spikes line up with their
// cause in the same timeline. Set before Install/ApplyAll.
func (inj *Injector) SetTracer(tr *obs.Tracer) { inj.tracer = tr }

// Install schedules every fault transition on the engine: activation at
// Fault.At, clearing at Fault.At+Duration (faults with zero Duration
// never clear). Times already in the engine's past activate immediately.
func (inj *Injector) Install(eng *sim.Engine) {
	now := eng.Now()
	for i := range inj.faults {
		i := i
		f := inj.faults[i]
		at := f.At
		if at < now {
			at = now
		}
		eng.At(at, func(t sim.Time) { inj.applyFault(i, t) })
		if f.Duration > 0 {
			end := f.At + f.Duration
			if end < now {
				end = now
			}
			eng.At(end, func(t sim.Time) { inj.clearFault(i, t) })
		}
	}
}

// ApplyAll activates every fault immediately, ignoring At/Duration. It
// serves wall-clock consumers (cxlserve) that have no virtual-time
// engine: the process starts with the whole schedule in force.
func (inj *Injector) ApplyAll() {
	for i := range inj.faults {
		inj.applyFault(i, 0)
	}
}

// Reset clears every active fault and restores all touched resources to
// their pristine snapshots.
func (inj *Injector) Reset() {
	for i := range inj.faults {
		if inj.liveFaults[i] {
			inj.clearFault(i, 0)
		}
	}
}

func (inj *Injector) applyFault(i int, now sim.Time) {
	if inj.liveFaults[i] {
		return
	}
	inj.liveFaults[i] = true
	inj.activeCount.Add(1)
	for _, r := range inj.targets[i] {
		if _, ok := inj.base[r]; !ok {
			inj.base[r] = r.Snapshot() // lazy baseline: state in force now
		}
		inj.active[r][i] = true
		inj.recompute(r)
	}
	if inj.injected != nil {
		inj.injected.With(string(inj.faults[i].Kind)).Inc()
	}
	inj.tracer.Instant("fault", string(inj.faults[i].Kind)+" "+inj.faults[i].Target+" injected", now,
		map[string]any{"severity": inj.faults[i].Severity})
	inj.fireChange(now)
}

func (inj *Injector) clearFault(i int, now sim.Time) {
	if !inj.liveFaults[i] {
		return
	}
	inj.liveFaults[i] = false
	inj.activeCount.Add(-1)
	for _, r := range inj.targets[i] {
		delete(inj.active[r], i)
		inj.recompute(r)
	}
	if inj.cleared != nil {
		inj.cleared.With(string(inj.faults[i].Kind)).Inc()
	}
	inj.tracer.Instant("fault", string(inj.faults[i].Kind)+" "+inj.faults[i].Target+" cleared", now, nil)
	inj.fireChange(now)
}

// recompute rebuilds a resource from its pristine snapshot and reapplies
// every active fault's factors multiplicatively. Recomputing from the
// baseline (rather than stacking Degrade calls) makes clearing exact and
// keeps repeated transitions from compounding error.
func (inj *Injector) recompute(r *memsim.Resource) {
	r.Restore(inj.base[r])
	bw, lat := 1.0, 1.0
	// Walk fault indices in schedule order, not map order: float
	// multiplication is order-sensitive in the last bit, and byte-identical
	// output across runs is a hard invariant.
	live := inj.active[r]
	for i := range inj.faults {
		if !live[i] {
			continue
		}
		fb, fl := inj.faults[i].factors()
		bw *= fb
		lat *= fl
	}
	if bw < minBWFactor {
		bw = minBWFactor
	}
	if bw < 1 || lat > 1 {
		r.Degrade(bw, lat)
	}
}

func (inj *Injector) fireChange(now sim.Time) {
	for _, fn := range inj.onChange {
		fn(now)
	}
}

// ActiveCount returns the number of currently active faults. Safe from
// any goroutine.
func (inj *Injector) ActiveCount() int { return int(inj.activeCount.Load()) }

// Degraded reports whether the node's backing device currently has an
// active fault. It implements the tiering health interface.
func (inj *Injector) Degraded(n *topology.Node) bool {
	if inj == nil || n == nil {
		return false
	}
	return len(inj.active[n.Resource()]) > 0
}

// DegradedResources lists the names of resources with active faults, in
// sorted order — the /health detail string.
func (inj *Injector) DegradedResources() []string {
	var names []string
	for r, live := range inj.active {
		if len(live) > 0 {
			names = append(names, r.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Describe summarizes the materialized schedule for banners and logs.
func (inj *Injector) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d fault(s)", len(inj.faults))
	for i, f := range inj.faults {
		if i == 4 && len(inj.faults) > 5 {
			fmt.Fprintf(&b, "; … %d more", len(inj.faults)-i)
			break
		}
		dur := "∞"
		if f.Duration > 0 {
			dur = fmt.Sprintf("%.0fms", float64(f.Duration)/msToNs)
		}
		fmt.Fprintf(&b, "; %s %s@%.0fms for %s sev=%.2f",
			f.Kind, f.Target, float64(f.At)/msToNs, dur, f.Severity)
	}
	return b.String()
}
