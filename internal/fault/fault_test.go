package fault

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cxlsim/internal/memsim"
	"cxlsim/internal/sim"
	"cxlsim/internal/topology"
)

func TestParseSchedule(t *testing.T) {
	const doc = `{
	  "faults": [
	    {"at_ms": 2, "duration_ms": 30, "kind": "Link-Degrade", "target": "/cxl0", "severity": 0.7}
	  ],
	  "client": {"timeout_ms": 2.0, "backoff_ms": 0.5, "max_retries": 3}
	}`
	s, err := ParseSchedule(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 1 {
		t.Fatalf("want 1 fault, got %d", len(s.Faults))
	}
	f := s.Faults[0]
	if f.At != 2e6 || f.Duration != 30e6 {
		t.Errorf("ms->ns conversion wrong: at=%v dur=%v", f.At, f.Duration)
	}
	if f.Kind != LinkDegrade {
		t.Errorf("kind not normalized: %q", f.Kind)
	}
	pol := s.ClientPolicy()
	if pol.TimeoutNs != 2e6 || pol.BackoffNs != 0.5e6 || pol.MaxRetries != 3 {
		t.Errorf("client policy wrong: %+v", pol)
	}
}

// TestClientPolicyDefaults: a client block that sets only timeout_ms
// gets backoff = timeout and three retries, and no client block (or no
// timeout) disables the policy.
func TestClientPolicyDefaults(t *testing.T) {
	const doc = `{
	  "faults": [{"at_ms": 0, "kind": "link-degrade", "target": "/cxl0", "severity": 0.5}],
	  "client": {"timeout_ms": 2.0}
	}`
	s, err := ParseSchedule(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := Resilience{TimeoutNs: 2e6, BackoffNs: 2e6, MaxRetries: 3}
	if pol := s.ClientPolicy(); pol != want {
		t.Errorf("timeout-only policy = %+v, want %+v", pol, want)
	}
	s.Client = nil
	if pol := s.ClientPolicy(); pol != (Resilience{}) {
		t.Errorf("no client block: policy = %+v, want zero", pol)
	}
	s.Client = &Resilience{BackoffNs: 1e6, MaxRetries: 2}
	if pol := s.ClientPolicy(); pol != (Resilience{}) {
		t.Errorf("no timeout: policy = %+v, want zero", pol)
	}
	if pol := (*Schedule)(nil).ClientPolicy(); pol != (Resilience{}) {
		t.Errorf("nil schedule: policy = %+v, want zero", pol)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"unknown field", `{"faults":[{"at_ms":1,"kind":"node-loss","target":"cxl","sev":1}]}`},
		{"empty schedule", `{}`},
		{"unknown kind", `{"faults":[{"at_ms":1,"kind":"gremlins","target":"cxl"}]}`},
		{"empty target", `{"faults":[{"at_ms":1,"kind":"node-loss","target":""}]}`},
		{"negative time", `{"faults":[{"at_ms":-1,"kind":"node-loss","target":"cxl"}]}`},
		{"severity > 1", `{"faults":[{"at_ms":1,"kind":"link-degrade","target":"cxl","severity":1.5}]}`},
		{"negative client", `{"faults":[{"at_ms":1,"kind":"node-loss","target":"cxl"}],"client":{"timeout_ms":-2}}`},
		{"stochastic no targets", `{"stochastic":{"seed":1,"rate_per_sec":10,"mean_duration_ms":1,"horizon_ms":10}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSchedule(strings.NewReader(tc.doc)); err == nil {
				t.Error("want parse/validate error")
			}
		})
	}
}

// Stochastic expansion must be a pure function of the schedule: identical
// seeds yield identical fault lists, and the list is sorted by start time
// — the determinism contract that makes fault replays reproducible at any
// parallelism.
func TestMaterializeDeterministic(t *testing.T) {
	s := &Schedule{
		Faults: []Fault{{At: 5e6, Kind: NodeLoss, Target: "cxl0"}},
		Stochastic: &Stochastic{
			Seed:           7,
			RatePerSec:     2000,
			MeanDurationNs: 1e6,
			HorizonNs:      20e6,
			Severity:       0.6,
			Targets:        []string{"cxl0", "cxl1"},
		},
	}
	a, b := s.Materialize(), s.Materialize()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Materialize is not deterministic")
	}
	if len(a) < 2 {
		t.Fatalf("expected stochastic draws on top of the scripted fault, got %d faults", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Error("materialized faults not sorted by start time")
	}
	for i, f := range a {
		if err := f.validate(i); err != nil {
			t.Errorf("materialized fault %d invalid: %v", i, err)
		}
	}
	// A different seed must actually change the draw.
	s2 := *s
	st := *s.Stochastic
	st.Seed = 8
	s2.Stochastic = &st
	if reflect.DeepEqual(a, s2.Materialize()) {
		t.Error("different seeds produced identical fault lists")
	}
}

// findResource pulls one resource by substring for direct inspection.
func findResource(t *testing.T, m *topology.Machine, sub string) *memsim.Resource {
	t.Helper()
	for _, r := range m.Resources() {
		if strings.Contains(r.Name, sub) {
			return r
		}
	}
	t.Fatalf("no resource matching %q", sub)
	return nil
}

// TestInjectorApplyClearRestore pins the snapshot/restore exactness
// contract: after a fault clears, the resource's calibration is bitwise
// identical to its pristine state — no cumulative drift.
func TestInjectorApplyClearRestore(t *testing.T) {
	m := topology.TestbedSNC()
	r := findResource(t, m, "/cxl0")
	idleRead0, idleWrite0, peakMax0 := r.IdleRead, r.IdleWrite, r.Peak.Max()

	s := &Schedule{Faults: []Fault{
		{At: 10, Duration: 90, Kind: LinkDegrade, Target: "/cxl0", Severity: 0.5},
	}}
	inj, err := NewInjector(s, m)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	inj.Install(eng)

	eng.Run()

	// Mid-run behaviour is exercised via ApplyAll/Reset below; after the
	// engine drains, the fault has applied and cleared once.
	if r.IdleRead != idleRead0 || r.IdleWrite != idleWrite0 || r.Peak.Max() != peakMax0 {
		t.Fatalf("restore not exact after clear: idle %v/%v peak %v, want %v/%v %v",
			r.IdleRead, r.IdleWrite, r.Peak.Max(), idleRead0, idleWrite0, peakMax0)
	}
	if inj.ActiveCount() != 0 {
		t.Fatalf("active count %d after all faults cleared", inj.ActiveCount())
	}

	inj.ApplyAll()
	bw, lat := s.Faults[0].factors()
	if got, want := r.IdleRead, idleRead0*lat; math.Abs(got-want) > 1e-9*want {
		t.Errorf("degraded IdleRead = %v, want %v", got, want)
	}
	if got, want := r.Peak.Max(), peakMax0*bw; math.Abs(got-want) > 1e-9*want {
		t.Errorf("degraded peak = %v, want %v", got, want)
	}
	if inj.ActiveCount() != 1 {
		t.Errorf("active count %d, want 1", inj.ActiveCount())
	}
	if got := inj.DegradedResources(); len(got) == 0 {
		t.Error("DegradedResources empty while fault active")
	}

	inj.Reset()
	if r.IdleRead != idleRead0 || r.Peak.Max() != peakMax0 {
		t.Fatal("Reset did not restore the pristine snapshot exactly")
	}
}

// Overlapping faults on the same target compose multiplicatively and
// unwind cleanly as each clears.
func TestOverlappingFaultsCompose(t *testing.T) {
	m := topology.TestbedSNC()
	r := findResource(t, m, "/cxl0")
	idleRead0 := r.IdleRead

	s := &Schedule{Faults: []Fault{
		{At: 0, Duration: 200, Kind: LinkDegrade, Target: "/cxl0", Severity: 0.5},
		{At: 50, Duration: 100, Kind: LinkDegrade, Target: "/cxl0", Severity: 0.2},
	}}
	inj, err := NewInjector(s, m)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	inj.Install(eng)

	_, lat0 := s.Faults[0].factors()
	_, lat1 := s.Faults[1].factors()

	check := func(when sim.Time, want float64) {
		eng.At(when, func(sim.Time) {
			if got := r.IdleRead; math.Abs(got-want) > 1e-9*want {
				t.Errorf("t=%v: IdleRead = %v, want %v", when, got, want)
			}
		})
	}
	check(25, idleRead0*lat0)       // only fault 0
	check(100, idleRead0*lat0*lat1) // overlap
	check(175, idleRead0*lat0)      // fault 1 cleared
	check(250, idleRead0)           // both cleared
	eng.Run()
}

func TestDanglingTargetErrors(t *testing.T) {
	s := &Schedule{Faults: []Fault{{At: 0, Kind: NodeLoss, Target: "no-such-device"}}}
	if _, err := NewInjector(s, topology.TestbedSNC()); err == nil {
		t.Fatal("dangling target should fail injector construction")
	}
}

func TestDegradedNodeLookup(t *testing.T) {
	m := topology.TestbedSNC()
	s := &Schedule{Faults: []Fault{{At: 0, Kind: NodeLoss, Target: "/cxl0"}}}
	inj, err := NewInjector(s, m)
	if err != nil {
		t.Fatal(err)
	}
	cxl := m.CXLNodes()[0]
	if inj.Degraded(cxl) {
		t.Error("node degraded before any fault applied")
	}
	inj.ApplyAll()
	if !inj.Degraded(cxl) {
		t.Error("node not degraded after node-loss applied")
	}
	if inj.Degraded(m.DRAMNodes(0)[0]) {
		t.Error("DRAM node reported degraded by a CXL fault")
	}
	inj.Reset()
	if inj.Degraded(cxl) {
		t.Error("node still degraded after Reset")
	}
}
