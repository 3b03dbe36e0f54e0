// Package fault is cxlsim's deterministic fault injector: it perturbs
// device models (CXL expanders, UPI links, DDR domains, the RSF stage)
// mid-run, in virtual time, so experiments can ask what happens to the
// paper's results when the fabric degrades instead of assuming healthy
// hardware.
//
// A Schedule is either scripted (explicit Fault entries), stochastic (a
// seeded Poisson process over a target set), or both. Stochastic faults
// are materialized into a concrete fault list up front, from the
// schedule's own seed — never drawn during the run — so a fault trace is
// reproducible at any parallelism and independent of event interleaving.
//
// The Injector applies faults by rewriting the targeted resources'
// calibration (memsim.Resource.Degrade) and restores the pristine
// baseline snapshot on every transition, so overlapping faults compose
// multiplicatively instead of compounding into the baseline. With no
// schedule installed nothing is scheduled and nothing is snapshotted:
// the healthy path is untouched.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"cxlsim/internal/sim"
)

// Kind names a fault class. Each kind maps severity onto a bandwidth
// clamp and a latency multiplier for the targeted resources.
type Kind string

// The fault kinds.
const (
	// LinkDegrade models a CXL/UPI link running degraded — PCIe lanes
	// retrained down, CRC retries, a thermally throttled expander.
	// Severity 1 clamps bandwidth to 5% and multiplies latency by 10.
	LinkDegrade Kind = "link-degrade"
	// DeviceStall models a transient device stall — controller firmware
	// hiccup, DRAM refresh storm, error-recovery pause. Severity 1
	// clamps bandwidth to 1% and multiplies latency by 1000.
	DeviceStall Kind = "device-stall"
	// NodeLoss takes a memory node effectively offline: bandwidth drops
	// to 0.1% and latency inflates 1000×, regardless of severity. Pages
	// resident there keep (barely) answering — the graceful-degradation
	// layers are expected to evacuate or route around the node.
	NodeLoss Kind = "node-loss"
)

func (k Kind) valid() bool {
	switch k {
	case LinkDegrade, DeviceStall, NodeLoss:
		return true
	}
	return false
}

// Fault is one scheduled perturbation of the resources whose names
// contain Target.
type Fault struct {
	At       sim.Time // virtual start time (≥ 0)
	Duration sim.Time // 0 = never clears
	Kind     Kind
	Target   string  // case-insensitive substring of resource names
	Severity float64 // [0,1]; ignored by node-loss
}

// minBWFactor floors the composed bandwidth clamp so a resource never
// reaches exactly zero capacity (the solver needs positive peaks).
const minBWFactor = 1e-3

// factors maps the fault onto (bandwidth clamp, latency multiplier).
func (f Fault) factors() (bw, lat float64) {
	sev := f.Severity
	if sev < 0 {
		sev = 0
	}
	if sev > 1 {
		sev = 1
	}
	switch f.Kind {
	case LinkDegrade:
		return 1 - 0.95*sev, 1 + 9*sev
	case DeviceStall:
		return 1 - 0.99*sev, 1 + 999*sev
	case NodeLoss:
		return minBWFactor, 1000
	}
	return 1, 1
}

func (f Fault) validate(i int) error {
	switch {
	case !f.Kind.valid():
		return fmt.Errorf("fault %d: unknown kind %q", i, f.Kind)
	case f.Target == "":
		return fmt.Errorf("fault %d: empty target", i)
	case f.At < 0 || math.IsNaN(float64(f.At)) || math.IsInf(float64(f.At), 0):
		return fmt.Errorf("fault %d: invalid start time %v", i, float64(f.At))
	case f.Duration < 0 || math.IsNaN(float64(f.Duration)) || math.IsInf(float64(f.Duration), 0):
		return fmt.Errorf("fault %d: invalid duration %v", i, float64(f.Duration))
	case f.Severity < 0 || f.Severity > 1 || math.IsNaN(f.Severity):
		return fmt.Errorf("fault %d: severity %v outside [0,1]", i, f.Severity)
	}
	return nil
}

// Stochastic is a seeded random fault process: a Poisson arrival stream
// over a horizon, drawing kind, target, duration, and severity per
// event. It is expanded into concrete faults once, at injector build
// time, by Materialize — reproducibility does not depend on run
// interleaving.
type Stochastic struct {
	Seed           int64
	RatePerSec     float64  // mean faults per virtual second
	MeanDurationNs float64  // mean fault duration (exponential)
	HorizonNs      float64  // generate arrivals in [0, Horizon)
	Severity       float64  // mean severity, jittered ±50%
	Kinds          []Kind   // empty = all kinds
	Targets        []string // required: drawn uniformly per fault
}

func (st *Stochastic) validate() error {
	switch {
	case st.RatePerSec <= 0 || math.IsNaN(st.RatePerSec) || math.IsInf(st.RatePerSec, 0):
		return fmt.Errorf("stochastic: rate %v must be positive and finite", st.RatePerSec)
	case st.MeanDurationNs <= 0:
		return fmt.Errorf("stochastic: mean duration %v must be positive", st.MeanDurationNs)
	case st.HorizonNs <= 0:
		return fmt.Errorf("stochastic: horizon %v must be positive", st.HorizonNs)
	case st.Severity < 0 || st.Severity > 1 || math.IsNaN(st.Severity):
		return fmt.Errorf("stochastic: severity %v outside [0,1]", st.Severity)
	case len(st.Targets) == 0:
		return fmt.Errorf("stochastic: no targets")
	}
	for _, k := range st.Kinds {
		if !k.valid() {
			return fmt.Errorf("stochastic: unknown kind %q", k)
		}
	}
	return nil
}

// Resilience is the client-side retry policy replayed with a schedule:
// the request paths (kvstore closed loop, llmserve router) treat an
// attempt slower than Timeout as timed out and retry after an
// exponential backoff, all in virtual time. A zero TimeoutNs disables
// timeouts and retries.
type Resilience struct {
	TimeoutNs  float64
	BackoffNs  float64 // base retry backoff, doubled per retry
	MaxRetries int     // retries after the first attempt
}

// Schedule is a full fault scenario: scripted faults, an optional
// stochastic process, and the client resilience policy to replay with
// them.
type Schedule struct {
	Faults     []Fault
	Stochastic *Stochastic
	Client     *Resilience
}

// Validate checks every scripted fault and the stochastic spec.
func (s *Schedule) Validate() error {
	if len(s.Faults) == 0 && s.Stochastic == nil {
		return fmt.Errorf("fault: schedule is empty")
	}
	for i, f := range s.Faults {
		if err := f.validate(i); err != nil {
			return fmt.Errorf("fault: %w", err)
		}
	}
	if s.Stochastic != nil {
		if err := s.Stochastic.validate(); err != nil {
			return fmt.Errorf("fault: %w", err)
		}
	}
	if c := s.Client; c != nil {
		if c.TimeoutNs < 0 || c.BackoffNs < 0 || c.MaxRetries < 0 {
			return fmt.Errorf("fault: negative client resilience parameters %+v", *c)
		}
	}
	return nil
}

// defaultMaxRetries is the retry count of a client block that sets a
// timeout but no max_retries.
const defaultMaxRetries = 3

// ClientPolicy returns the schedule's resilience policy with its
// defaults filled in: with a timeout set, a zero backoff becomes the
// timeout and zero retries become 3. It is the zero policy (timeouts and
// retries disabled) when the schedule is nil or sets no timeout. Every
// request path reads its policy here.
func (s *Schedule) ClientPolicy() Resilience {
	if s == nil || s.Client == nil || s.Client.TimeoutNs <= 0 {
		return Resilience{}
	}
	pol := *s.Client
	if pol.BackoffNs == 0 {
		pol.BackoffNs = pol.TimeoutNs
	}
	if pol.MaxRetries == 0 {
		pol.MaxRetries = defaultMaxRetries
	}
	return pol
}

// Materialize expands the schedule into a concrete fault list sorted by
// (start time, schedule order): the scripted faults plus the stochastic
// process drawn from its seed. Calling it twice yields identical lists.
func (s *Schedule) Materialize() []Fault {
	out := append([]Fault(nil), s.Faults...)
	if st := s.Stochastic; st != nil {
		rng := rand.New(rand.NewSource(st.Seed))
		kinds := st.Kinds
		if len(kinds) == 0 {
			kinds = []Kind{LinkDegrade, DeviceStall, NodeLoss}
		}
		interNs := 1e9 / st.RatePerSec
		for t := rng.ExpFloat64() * interNs; t < st.HorizonNs; t += rng.ExpFloat64() * interNs {
			sev := st.Severity * (0.5 + rng.Float64())
			if sev > 1 {
				sev = 1
			}
			out = append(out, Fault{
				At:       sim.Time(t),
				Duration: sim.Time(rng.ExpFloat64() * st.MeanDurationNs),
				Kind:     kinds[rng.Intn(len(kinds))],
				Target:   st.Targets[rng.Intn(len(st.Targets))],
				Severity: sev,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// --- JSON wire format (times in milliseconds; see docs/RELIABILITY.md) ---

type faultJSON struct {
	AtMs       float64 `json:"at_ms"`
	DurationMs float64 `json:"duration_ms,omitempty"`
	Kind       string  `json:"kind"`
	Target     string  `json:"target"`
	Severity   float64 `json:"severity,omitempty"`
}

type stochasticJSON struct {
	Seed           int64    `json:"seed"`
	RatePerSec     float64  `json:"rate_per_sec"`
	MeanDurationMs float64  `json:"mean_duration_ms"`
	HorizonMs      float64  `json:"horizon_ms"`
	Severity       float64  `json:"severity,omitempty"`
	Kinds          []string `json:"kinds,omitempty"`
	Targets        []string `json:"targets"`
}

type resilienceJSON struct {
	TimeoutMs  float64 `json:"timeout_ms"`
	BackoffMs  float64 `json:"backoff_ms,omitempty"`
	MaxRetries int     `json:"max_retries,omitempty"`
}

type scheduleJSON struct {
	Faults     []faultJSON     `json:"faults,omitempty"`
	Stochastic *stochasticJSON `json:"stochastic,omitempty"`
	Client     *resilienceJSON `json:"client,omitempty"`
}

const msToNs = 1e6

// ParseSchedule reads the JSON schedule format. Unknown fields are
// rejected so a typoed key fails loudly instead of silently injecting
// nothing.
func ParseSchedule(r io.Reader) (*Schedule, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var w scheduleJSON
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("fault: parsing schedule: %w", err)
	}
	s := &Schedule{}
	for _, fj := range w.Faults {
		s.Faults = append(s.Faults, Fault{
			At:       sim.Time(fj.AtMs * msToNs),
			Duration: sim.Time(fj.DurationMs * msToNs),
			Kind:     Kind(strings.ToLower(fj.Kind)),
			Target:   fj.Target,
			Severity: fj.Severity,
		})
	}
	if sj := w.Stochastic; sj != nil {
		st := &Stochastic{
			Seed:           sj.Seed,
			RatePerSec:     sj.RatePerSec,
			MeanDurationNs: sj.MeanDurationMs * msToNs,
			HorizonNs:      sj.HorizonMs * msToNs,
			Severity:       sj.Severity,
			Targets:        sj.Targets,
		}
		for _, k := range sj.Kinds {
			st.Kinds = append(st.Kinds, Kind(strings.ToLower(k)))
		}
		s.Stochastic = st
	}
	if cj := w.Client; cj != nil {
		s.Client = &Resilience{
			TimeoutNs:  cj.TimeoutMs * msToNs,
			BackoffNs:  cj.BackoffMs * msToNs,
			MaxRetries: cj.MaxRetries,
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadSchedule reads and parses a schedule file.
func LoadSchedule(path string) (*Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	defer f.Close()
	s, err := ParseSchedule(f)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return s, nil
}
