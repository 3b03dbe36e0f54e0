// Package slo evaluates declarative service-level objectives against
// the windowed metric view in internal/obs, entirely in virtual time.
//
// A Spec names objectives — latency-percentile targets over a window
// histogram, or availability over good/bad counters — plus multi-window
// burn-rate alert rules in the SRE style: an alert fires when both a
// long and a short trailing window burn error budget faster than the
// rule's factor, so sustained degradation trips quickly while the short
// window makes the alert reset promptly once the incident clears.
//
// Everything is deterministic: evaluation consumes sealed
// obs.WindowSnapshot values in order, alert transitions are emitted as
// tracer instants at window-end virtual times and as obs counters, and
// the resulting Evaluation serializes to stable JSON for cxlreport.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
)

// Objective kinds.
const (
	KindLatency      = "latency"      // fraction of observations at or under ThresholdNs
	KindAvailability = "availability" // good counter vs bad counter
)

// Objective is one service-level objective evaluated per window.
type Objective struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // KindLatency or KindAvailability

	// Metric names the good signal: for latency, the histogram family
	// whose windowed buckets are classified against ThresholdNs; for
	// availability, the counter family of successful events. Children of
	// a labeled family are summed.
	Metric string `json:"metric"`

	// ThresholdNs classifies a latency observation as good when its
	// bucket upper bound is at or under it. Latency objectives only.
	ThresholdNs float64 `json:"threshold_ns,omitempty"`

	// BadMetric is the counter family of failed events. Availability
	// objectives only.
	BadMetric string `json:"bad_metric,omitempty"`

	// Target is the objective's good fraction in (0,1), e.g. 0.999.
	Target float64 `json:"target"`
}

// AlertRule is a multi-window burn-rate alert over one objective. The
// rule fires for a window when the error-budget burn rate over both the
// trailing LongWindows and the trailing ShortWindows is at least
// BurnRate. Windows are event-weighted (total burn over total traffic),
// and trailing ranges shorter than requested — at the start of a run —
// use what exists.
type AlertRule struct {
	Name         string  `json:"name"`
	Objective    string  `json:"objective"`
	LongWindows  int     `json:"long_windows"`
	ShortWindows int     `json:"short_windows"`
	BurnRate     float64 `json:"burn_rate"`
}

// Spec is a full SLO declaration, loadable from examples/slo/*.json.
type Spec struct {
	Name string `json:"name"`

	// WindowMs is the evaluation window length in virtual milliseconds,
	// used by commands to size obs.Windows when no -windows flag is
	// given. Optional.
	WindowMs float64 `json:"window_ms,omitempty"`

	Objectives []Objective `json:"objectives"`
	Alerts     []AlertRule `json:"alerts,omitempty"`
}

// Validate checks the spec's internal consistency.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("slo: spec has no name")
	}
	if s.WindowMs < 0 {
		return fmt.Errorf("slo: spec %s: negative window_ms", s.Name)
	}
	if len(s.Objectives) == 0 {
		return fmt.Errorf("slo: spec %s has no objectives", s.Name)
	}
	names := map[string]bool{}
	for i, o := range s.Objectives {
		if o.Name == "" {
			return fmt.Errorf("slo: spec %s: objective %d has no name", s.Name, i)
		}
		if names[o.Name] {
			return fmt.Errorf("slo: spec %s: duplicate objective %q", s.Name, o.Name)
		}
		names[o.Name] = true
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo: objective %s: target %v outside (0,1)", o.Name, o.Target)
		}
		if o.Metric == "" {
			return fmt.Errorf("slo: objective %s: no metric", o.Name)
		}
		switch o.Kind {
		case KindLatency:
			if o.ThresholdNs <= 0 {
				return fmt.Errorf("slo: latency objective %s: threshold_ns must be positive", o.Name)
			}
		case KindAvailability:
			if o.BadMetric == "" {
				return fmt.Errorf("slo: availability objective %s: no bad_metric", o.Name)
			}
		default:
			return fmt.Errorf("slo: objective %s: unknown kind %q", o.Name, o.Kind)
		}
	}
	alerts := map[string]bool{}
	for i, a := range s.Alerts {
		if a.Name == "" {
			return fmt.Errorf("slo: spec %s: alert %d has no name", s.Name, i)
		}
		if alerts[a.Name] {
			return fmt.Errorf("slo: spec %s: duplicate alert %q", s.Name, a.Name)
		}
		alerts[a.Name] = true
		if !names[a.Objective] {
			return fmt.Errorf("slo: alert %s references unknown objective %q", a.Name, a.Objective)
		}
		if a.ShortWindows < 1 || a.LongWindows < 1 {
			return fmt.Errorf("slo: alert %s: window counts must be at least 1", a.Name)
		}
		if a.ShortWindows > a.LongWindows {
			return fmt.Errorf("slo: alert %s: short_windows exceeds long_windows", a.Name)
		}
		if a.BurnRate <= 0 {
			return fmt.Errorf("slo: alert %s: burn_rate must be positive", a.Name)
		}
	}
	return nil
}

// WindowNs is the window-length rule every command shares: flagMs (a
// -windows value, virtual ms) when positive, else the spec's window_ms
// when spec is non-nil and sets one, else fallbackNs.
func WindowNs(flagMs float64, spec *Spec, fallbackNs float64) float64 {
	switch {
	case flagMs > 0:
		return flagMs * 1e6
	case spec != nil && spec.WindowMs > 0:
		return spec.WindowMs * 1e6
	}
	return fallbackNs
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("slo: parsing %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &s, nil
}

// ObjectiveResult is one objective's standing in one window.
type ObjectiveResult struct {
	Name         string  `json:"name"`
	Good         float64 `json:"good"`
	Total        float64 `json:"total"`
	GoodFraction float64 `json:"good_fraction"`
	BurnRate     float64 `json:"burn_rate"` // budget burn this window; 1.0 = exactly on target
	Met          bool    `json:"met"`
}

// AlertResult is one alert rule's standing in one window.
type AlertResult struct {
	Name      string  `json:"name"`
	Firing    bool    `json:"firing"`
	LongBurn  float64 `json:"long_burn"`
	ShortBurn float64 `json:"short_burn"`
}

// WindowResult is a full evaluation of one sealed window.
type WindowResult struct {
	Index      int64             `json:"index"`
	StartNs    float64           `json:"start_ns"`
	EndNs      float64           `json:"end_ns"`
	Objectives []ObjectiveResult `json:"objectives"`
	Alerts     []AlertResult     `json:"alerts,omitempty"`
}

// Evaluation is a spec plus every window result, the unit cxlreport
// consumes.
type Evaluation struct {
	Spec    Spec           `json:"spec"`
	Windows []WindowResult `json:"windows"`
}
