// Package llmserve realizes the paper's Fig. 9 serving architecture as a
// real HTTP service over the simulated cluster: an HTTP frontend receives
// tokenized requests, a router distributes them across CPU inference
// backends, and each backend's token timing comes from the llm model
// under the current memory placement.
//
// The service answers in wall-clock time but reports *virtual* latencies:
// it is a functional demonstration of the stack (useful for driving the
// simulator from external tooling), not a wall-clock benchmark.
//
// Observability: every server owns an obs.Registry (Prometheus text at
// /metrics) and an obs.Tracer recording per-request virtual-time spans
// (Chrome trace-event JSON at /trace.json). Requests advance a virtual
// backend timeline: each backend serves back-to-back, so the gap between
// a request's admission frontier and its backend becoming free is its
// queue wait — the cost of round-robin routing versus least-loaded.
package llmserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"cxlsim/internal/fault"
	"cxlsim/internal/llm"
	"cxlsim/internal/obs"
	"cxlsim/internal/sim"
	"cxlsim/internal/slo"
	"cxlsim/internal/stats"
)

// traceEventLimit bounds the server's in-memory trace so a long-lived
// service cannot grow without bound.
const traceEventLimit = 1 << 16

// Request is one generation call.
type Request struct {
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
}

// Response reports the simulated generation.
type Response struct {
	Backend          int     `json:"backend"`
	Tokens           int     `json:"tokens"`
	VirtualLatencyMs float64 `json:"virtual_latency_ms"`
	QueueWaitMs      float64 `json:"queue_wait_ms"`
	TokensPerSec     float64 `json:"tokens_per_sec"`
	Policy           string  `json:"policy"`
	Retries          int     `json:"retries,omitempty"`
	Degraded         bool    `json:"degraded,omitempty"`
}

// Server is the Fig. 9 stack: frontend + router + n backends.
type Server struct {
	policy   llm.Policy
	backends int
	// steady is the cluster's steady-state serving point, solved once at
	// construction: policy and backend count are fixed for the server's
	// lifetime and ServingRate is deterministic.
	steady llm.ServingPoint

	reg    *obs.Registry
	tracer *obs.Tracer

	requestsC   *obs.Counter
	tokensC     *obs.Counter
	shedC       *obs.Counter
	timeoutC    *obs.Counter
	retryC      *obs.Counter
	reqLatency  *obs.Histogram
	queueWait   *obs.Histogram
	clusterRate *obs.Gauge

	// The degraded-mode policy (client, shedAfterNs) and health are
	// configured before serving starts and read without locking on the
	// request path.
	client      fault.Resilience
	shedAfterNs float64
	health      func() (degraded bool, detail []string)

	// windows and eval are configured by SetSLO before serving starts;
	// both are internally synchronized.
	windows *obs.Windows
	eval    *slo.Evaluator

	next      atomic.Uint64 // round-robin router cursor
	mu        sync.Mutex
	busyUntil []float64 // per-backend virtual timeline, ns
}

// New builds a server with n backends under a placement policy.
func New(c *llm.Cluster, policy llm.Policy, backends int) *Server {
	if backends < 1 {
		panic("llmserve: need at least one backend")
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	tr.SetLimit(traceEventLimit)
	s := &Server{
		policy: policy, backends: backends,
		steady: c.ServingRate(policy, backends),
		reg:    reg, tracer: tr,
		busyUntil: make([]float64, backends),
	}
	s.requestsC = reg.CounterVec("llmserve_requests_total",
		"generation requests served", "policy").With(policy.Name)
	s.tokensC = reg.CounterVec("llmserve_tokens_total",
		"tokens generated", "policy").With(policy.Name)
	s.reqLatency = reg.Histogram("llmserve_request_virtual_ns",
		"virtual generation latency per request, ns", stats.NewLatencyHistogram)
	s.queueWait = reg.Histogram("llmserve_queue_wait_ns",
		"virtual wait for the routed backend beyond the admission frontier, ns",
		stats.NewLatencyHistogram)
	s.clusterRate = reg.Gauge("llmserve_cluster_tokens_per_sec",
		"steady-state cluster serving rate under the current policy")
	s.shedC = reg.Counter("llmserve_shed_total",
		"requests shed with 503 because the routed backend's queue wait exceeded the shed threshold")
	s.timeoutC = reg.Counter("llmserve_timeouts_total",
		"requests rejected with 504 after exhausting retries over the virtual timeout")
	s.retryC = reg.Counter("llmserve_retries_total",
		"attempt reroutes after a virtual timeout")
	// Tail requests capture exemplar links to their trace spans, and the
	// tracer's drop count is exposed as an obs_* self-metric.
	s.reqLatency.EnableExemplars(0.99)
	reg.TrackTracer(tr)
	return s
}

// SetSLO installs an SLO spec evaluated over virtual-time windows of
// windowMs virtual ms (0 uses the spec's window_ms, falling back to 1 s;
// see slo.WindowNs). Each request's booking flushes the window view at
// its virtual end time, and /slo serves the accumulated evaluation. Call
// before serving starts.
func (s *Server) SetSLO(spec slo.Spec, windowMs float64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	s.windows = obs.NewWindows(s.reg, sim.Time(slo.WindowNs(windowMs, &spec, 1e9)))
	s.eval = slo.NewEvaluator(spec)
	s.eval.Instrument(s.reg, s.tracer)
	s.eval.Bind(s.windows)
	return nil
}

// SetResilience installs the degraded-mode response policy. The client
// policy of schedule (nil: none; see fault.Schedule.ClientPolicy) bounds
// one attempt's virtual service time: an attempt over the timeout is
// retried on the least-loaded backend, and a request still over budget
// after the last retry gets 504. shedAfterNs (0: never) sheds a request
// with 503 + Retry-After when the routed backend's queue wait exceeds
// it, instead of booking ever-deeper virtual backlog. Call before
// serving starts.
func (s *Server) SetResilience(schedule *fault.Schedule, shedAfterNs float64) {
	s.client, s.shedAfterNs = schedule.ClientPolicy(), shedAfterNs
}

// SetHealth installs a health source consulted by /health and stamped
// onto responses (fault.Injector's ActiveCount/DegradedResources wrap
// naturally). Call before serving starts; fn must be safe for concurrent
// use.
func (s *Server) SetHealth(fn func() (degraded bool, detail []string)) { s.health = fn }

// Registry exposes the server's metrics registry (e.g. for merging into a
// process-wide exporter).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the server's virtual-time tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Handler returns the HTTP mux:
//
//	POST /generate   — run one generation
//	GET  /health     — serving health and degraded resources
//	GET  /metrics    — Prometheus text exposition
//	GET  /trace.json — Chrome trace-event JSON of request spans
//	GET  /slo        — windowed SLO evaluation (404 until SetSLO)
//	GET  /debug/...  — pprof and expvar
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/generate", s.handleGenerate)
	mux.HandleFunc("/health", s.handleHealth)
	mux.Handle("/metrics", obs.PromHandler(s.reg))
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/slo", s.handleSLO)
	obs.RegisterDebug(mux)
	return mux
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.MaxTokens <= 0 {
		req.MaxTokens = 64
	}
	if req.MaxTokens > 4096 {
		http.Error(w, "max_tokens too large", http.StatusBadRequest)
		return
	}

	// Route: round-robin across backends (the paper's router).
	backend := int(s.next.Add(1)-1) % s.backends

	// Steady-state serving rate under the full cluster load determines
	// this backend's per-token time.
	sp := s.steady
	perBackendRate := sp.TokensPerSec / float64(s.backends)
	virtualNs := float64(req.MaxTokens) / perBackendRate * 1e9

	// Advance the virtual backend timeline: the request starts when its
	// backend frees up; the frontier (least-loaded backend) is when a
	// perfect router could have started it. Everything inside the lock is
	// admission control: shed before booking, reroute timed-out attempts
	// to the least-loaded backend, and only then commit the timeline.
	s.mu.Lock()
	frontier := s.busyUntil[0]
	for _, b := range s.busyUntil[1:] {
		if b < frontier {
			frontier = b
		}
	}
	start := s.busyUntil[backend]
	wait := start - frontier
	if s.shedAfterNs > 0 && wait > s.shedAfterNs {
		s.mu.Unlock()
		s.shedC.Inc()
		// Retry-After in wall seconds is meaningless for a virtual
		// backlog; report the virtual wait rounded up so clients can
		// still back off proportionally.
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(wait/1e9)+1))
		http.Error(w, fmt.Sprintf("backend %d backlog %.1f ms exceeds shed threshold", backend, wait/1e6),
			http.StatusServiceUnavailable)
		return
	}
	retries := 0
	if s.client.TimeoutNs > 0 && virtualNs > s.client.TimeoutNs {
		// The per-token rate is cluster-wide, so a generation over the
		// virtual budget stays over budget on every backend: retries
		// reroute to the least-loaded backend (improving only queue wait),
		// burn their exponential backoff, and the request ultimately fails
		// with 504 — degraded mode refuses unserveable work instead of
		// booking virtual backlog no client would wait out.
		for retries < s.client.MaxRetries {
			retries++
			for i, b := range s.busyUntil {
				if b < s.busyUntil[backend] {
					backend = i
				}
			}
		}
		s.mu.Unlock()
		s.timeoutC.Inc()
		if retries > 0 {
			s.retryC.Add(float64(retries))
		}
		http.Error(w, fmt.Sprintf("generation exceeds virtual timeout after %d retries (need %.1f ms, budget %.1f ms)",
			retries, virtualNs/1e6, s.client.TimeoutNs/1e6), http.StatusGatewayTimeout)
		return
	}
	end := start + virtualNs
	s.busyUntil[backend] = end
	s.mu.Unlock()

	s.requestsC.Inc()
	s.tokensC.Add(float64(req.MaxTokens))
	spanID := s.tracer.SpanWithID("llmserve", "generate/"+s.policy.Name,
		sim.Time(start), sim.Time(end), map[string]any{
			"backend":       backend,
			"tokens":        req.MaxTokens,
			"queue_wait_ns": wait,
		})
	s.reqLatency.ObserveExemplar(virtualNs, obs.Exemplar{
		AtNs: end, SpanID: spanID, Track: "llmserve", Span: "generate/" + s.policy.Name,
	})
	s.queueWait.Observe(wait)
	s.clusterRate.Set(sp.TokensPerSec)
	// Advance the SLO window view to this request's virtual end; the
	// monotonic guard absorbs out-of-order bookings across backends.
	s.windows.Flush(sim.Time(end))

	degraded := false
	if s.health != nil {
		degraded, _ = s.health()
	}
	resp := Response{
		Backend:          backend,
		Tokens:           req.MaxTokens,
		VirtualLatencyMs: virtualNs / 1e6,
		QueueWaitMs:      wait / 1e6,
		TokensPerSec:     perBackendRate,
		Policy:           s.policy.Name,
		Retries:          retries,
		Degraded:         degraded,
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Client went away mid-write; nothing recoverable.
		return
	}
}

// Health is the /health payload.
type Health struct {
	Status   string   `json:"status"` // "ok" or "degraded"
	Policy   string   `json:"policy"`
	Backends int      `json:"backends"`
	Degraded []string `json:"degraded_resources,omitempty"`
}

// handleHealth answers 200 whenever the process is serving — degradation
// is reported in the body, not the status code, so orchestrators do not
// kill a pod that is shedding load exactly as designed.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	h := Health{Status: "ok", Policy: s.policy.Name, Backends: s.backends}
	if s.health != nil {
		if degraded, detail := s.health(); degraded {
			h.Status = "degraded"
			h.Degraded = detail
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(h); err != nil {
		return
	}
}

// handleSLO serves the accumulated windowed SLO evaluation.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.eval == nil {
		http.Error(w, "no SLO configured (start with -slo)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(s.eval.Evaluation()); err != nil {
		return
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.tracer.WriteJSON(w); err != nil {
		return
	}
}
