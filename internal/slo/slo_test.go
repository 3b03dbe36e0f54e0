package slo

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cxlsim/internal/obs"
	"cxlsim/internal/stats"
)

func validSpec() Spec {
	return Spec{
		Name:     "test",
		WindowMs: 10,
		Objectives: []Objective{
			{Name: "lat", Kind: KindLatency, Metric: "lat_ns", ThresholdNs: 1000, Target: 0.9},
			{Name: "avail", Kind: KindAvailability, Metric: "ok_total", BadMetric: "bad_total", Target: 0.99},
		},
		Alerts: []AlertRule{
			{Name: "lat-burn", Objective: "lat", LongWindows: 3, ShortWindows: 1, BurnRate: 2},
		},
	}
}

func TestValidateAcceptsGoodSpec(t *testing.T) {
	s := validSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	mutate := func(fn func(*Spec)) *Spec {
		s := validSpec()
		fn(&s)
		return &s
	}
	cases := []struct {
		name string
		spec *Spec
		want string
	}{
		{"no name", mutate(func(s *Spec) { s.Name = "" }), "no name"},
		{"no objectives", mutate(func(s *Spec) { s.Objectives = nil }), "no objectives"},
		{"duplicate objective", mutate(func(s *Spec) { s.Objectives[1] = s.Objectives[0] }), "duplicate"},
		{"target 1", mutate(func(s *Spec) { s.Objectives[0].Target = 1 }), "outside (0,1)"},
		{"target 0", mutate(func(s *Spec) { s.Objectives[0].Target = 0 }), "outside (0,1)"},
		{"latency without threshold", mutate(func(s *Spec) { s.Objectives[0].ThresholdNs = 0 }), "threshold_ns"},
		{"availability without bad metric", mutate(func(s *Spec) { s.Objectives[1].BadMetric = "" }), "bad_metric"},
		{"unknown kind", mutate(func(s *Spec) { s.Objectives[0].Kind = "weird" }), "unknown kind"},
		{"alert unknown objective", mutate(func(s *Spec) { s.Alerts[0].Objective = "nope" }), "unknown objective"},
		{"short exceeds long", mutate(func(s *Spec) { s.Alerts[0].ShortWindows = 5 }), "exceeds long_windows"},
		{"zero burn rate", mutate(func(s *Spec) { s.Alerts[0].BurnRate = 0 }), "burn_rate"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(`{
		"name": "file-spec", "window_ms": 5,
		"objectives": [{"name": "a", "kind": "availability",
			"metric": "ok_total", "bad_metric": "bad_total", "target": 0.95}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "file-spec" || s.WindowMs != 5 || len(s.Objectives) != 1 {
		t.Fatalf("loaded spec = %+v", s)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing file did not error")
	}
}

// TestWindowNs pins the window-length precedence: flag, then the spec's
// window_ms, then the caller's fallback.
func TestWindowNs(t *testing.T) {
	spec := validSpec()
	noWindow := validSpec()
	noWindow.WindowMs = 0
	for _, tc := range []struct {
		name   string
		flagMs float64
		spec   *Spec
		want   float64
	}{
		{"flag wins", 4, &spec, 4e6},
		{"spec window", 0, &spec, 10e6},
		{"spec without window", 0, &noWindow, 1e9},
		{"no spec", 0, nil, 1e9},
	} {
		if got := WindowNs(tc.flagMs, tc.spec, 1e9); got != tc.want {
			t.Errorf("%s: WindowNs = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// window fabricates a sealed snapshot: latency observations split
// good/bad around the 1000ns threshold, plus ok/bad counters.
func window(idx int64, goodLat, badLat uint64, ok, bad float64) obs.WindowSnapshot {
	ws := obs.WindowSnapshot{Index: idx, StartNs: float64(idx) * 10, EndNs: float64(idx+1) * 10}
	if goodLat+badLat > 0 {
		ws.Histograms = []obs.WindowHistogram{{
			Name:  "lat_ns",
			Count: goodLat + badLat,
			Buckets: []stats.Bucket{
				{UpperBound: 1000, Count: goodLat},
				{UpperBound: 100000, Count: badLat},
			},
		}}
	}
	if ok != 0 || bad != 0 {
		ws.Counters = []obs.WindowCounter{
			{Name: "ok_total", Delta: ok},
			{Name: "bad_total", Delta: bad},
		}
	}
	return ws
}

func TestObjectiveMeasurement(t *testing.T) {
	e := NewEvaluator(validSpec())
	res := e.Observe(window(0, 95, 5, 990, 10))

	lat := res.Objectives[0]
	if lat.Good != 95 || lat.Total != 100 || lat.GoodFraction != 0.95 {
		t.Fatalf("latency objective = %+v", lat)
	}
	if !lat.Met { // 0.95 ≥ target 0.9
		t.Fatal("latency objective not met at 95% good vs 90% target")
	}
	// burn = (1-0.95)/(1-0.9) = 0.5, up to float error
	if lat.BurnRate < 0.499 || lat.BurnRate > 0.501 {
		t.Fatalf("latency burn = %g, want ≈0.5", lat.BurnRate)
	}
	// 990/1000 sits exactly on the 0.99 target: met, burning budget at 1x.
	av := res.Objectives[1]
	if av.Good != 990 || av.Total != 1000 || !av.Met || av.BurnRate < 0.999 || av.BurnRate > 1.001 {
		t.Fatalf("availability objective = %+v, want met at burn ≈1", av)
	}

	// Below target: not met.
	below := e.Observe(window(1, 95, 5, 960, 40)).Objectives[1]
	if below.Met || below.GoodFraction != 0.96 {
		t.Fatalf("availability below target = %+v, want unmet at 0.96", below)
	}
}

func TestEmptyWindowMeetsObjectives(t *testing.T) {
	e := NewEvaluator(validSpec())
	res := e.Observe(window(0, 0, 0, 0, 0))
	for _, o := range res.Objectives {
		if !o.Met || o.GoodFraction != 1 || o.BurnRate != 0 {
			t.Fatalf("no-traffic objective = %+v, want met with burn 0", o)
		}
	}
	if res.Alerts[0].Firing {
		t.Fatal("alert firing with no traffic")
	}
}

func TestAlertFiresAndResolves(t *testing.T) {
	e := NewEvaluator(validSpec())
	// Healthy windows: burn 0.5, below the rule's 2.
	for i := int64(0); i < 3; i++ {
		if r := e.Observe(window(i, 95, 5, 100, 0)); r.Alerts[0].Firing {
			t.Fatalf("alert firing on healthy window %d", i)
		}
	}
	// Degraded: 50% bad → burn 5 ≥ 2 in both short (1) and long (3,
	// event-weighted) ranges once enough bad traffic accumulates.
	fired := false
	for i := int64(3); i < 6; i++ {
		if e.Observe(window(i, 50, 50, 100, 0)).Alerts[0].Firing {
			fired = true
		}
	}
	if !fired {
		t.Fatal("alert never fired through sustained 50% badness")
	}
	// Recovery: short window drops below the factor quickly.
	resolved := false
	for i := int64(6); i < 12; i++ {
		if !e.Observe(window(i, 100, 0, 100, 0)).Alerts[0].Firing {
			resolved = true
		}
	}
	if !resolved {
		t.Fatal("alert never resolved after recovery")
	}
}

func TestInstrumentEmitsTransitions(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	e := NewEvaluator(validSpec())
	e.Instrument(reg, tr)

	e.Observe(window(0, 0, 100, 100, 0)) // all bad: burn 10 → fire
	e.Observe(window(1, 100, 0, 100, 0)) // recover → resolve (short=1)

	snap := reg.Snapshot()
	var b strings.Builder
	if err := obs.WriteProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `slo_alert_transitions_total{alert="lat-burn"} 2`) {
		t.Fatalf("transition counter missing fire+resolve:\n%s", out)
	}
	if !strings.Contains(out, `slo_alert_firing{alert="lat-burn"} 0`) {
		t.Fatalf("firing gauge not reset:\n%s", out)
	}
	if tr.Len() != 2 {
		t.Fatalf("tracer recorded %d instants, want 2 (fire, resolve)", tr.Len())
	}
}

func TestEvaluationAccumulates(t *testing.T) {
	e := NewEvaluator(validSpec())
	e.Observe(window(0, 100, 0, 100, 0))
	e.Observe(window(1, 100, 0, 100, 0))
	ev := e.Evaluation()
	if len(ev.Windows) != 2 || ev.Spec.Name != "test" {
		t.Fatalf("evaluation = %d windows, spec %q", len(ev.Windows), ev.Spec.Name)
	}
	if ev.Windows[0].Index != 0 || ev.Windows[1].Index != 1 {
		t.Fatalf("window order wrong: %+v", ev.Windows)
	}
}
