package report

import (
	"cxlsim/internal/obs"
	"cxlsim/internal/sim"
	"cxlsim/internal/slo"
)

// Pass is one run's observability stack: a private metrics registry and
// tracer and, when windowed, the virtual-time window aggregator over the
// registry with the SLO evaluator (if any) riding its seals. Each pass
// owns its state, so parallel passes never share metrics.
type Pass struct {
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Windows *obs.Windows // nil when the pass is not windowed
	eval    *slo.Evaluator
}

// NewPass builds a pass windowed at windowNs virtual ns; windowNs <= 0
// leaves it unwindowed, and spec (nil: no SLO) is then ignored.
func NewPass(windowNs float64, spec *slo.Spec) *Pass {
	p := &Pass{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer()}
	if windowNs > 0 {
		p.Windows = obs.NewWindows(p.Metrics, sim.Time(windowNs))
		if spec != nil {
			p.eval = slo.NewEvaluator(*spec)
			p.eval.Instrument(p.Metrics, p.Tracer)
			p.eval.Bind(p.Windows)
		}
	}
	return p
}

// Run assembles the finished pass into a run dump, or nil when the pass
// is nil or not windowed.
func (p *Pass) Run(label, config, workload, schedule string) *Run {
	if p == nil || p.Windows == nil {
		return nil
	}
	r := &Run{
		Label:    label,
		Config:   config,
		Workload: workload,
		Schedule: schedule,
		WindowNs: float64(p.Windows.Length()),
		Windows:  p.Windows.Snapshot(),
	}
	if p.eval != nil {
		r.SLO = p.eval.Evaluation()
	}
	return r
}
