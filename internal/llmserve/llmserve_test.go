package llmserve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cxlsim/internal/fault"
	"cxlsim/internal/kvstore"
	"cxlsim/internal/llm"
	"cxlsim/internal/obs"
	"cxlsim/internal/workload"
)

func newTestServer(t *testing.T, policyIdx, backends int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(llm.NewCluster(), llm.Fig10Policies()[policyIdx], backends)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func generate(t *testing.T, ts *httptest.Server, body string) (*http.Response, Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/generate", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestGenerateEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, 0, 4)
	resp, out := generate(t, ts, `{"prompt":"hello","max_tokens":32}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Tokens != 32 || out.Policy != "MMEM" {
		t.Fatalf("response = %+v", out)
	}
	if out.VirtualLatencyMs <= 0 || out.TokensPerSec <= 0 {
		t.Fatalf("non-positive timing: %+v", out)
	}
	// 32 tokens at the reported rate must equal the reported latency.
	wantMs := float64(out.Tokens) / out.TokensPerSec * 1e3
	if diff := out.VirtualLatencyMs - wantMs; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("latency %v inconsistent with rate (want %v)", out.VirtualLatencyMs, wantMs)
	}
}

func TestRouterRoundRobins(t *testing.T) {
	_, ts := newTestServer(t, 0, 3)
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		_, out := generate(t, ts, `{"max_tokens":8}`)
		seen[out.Backend] = true
	}
	if len(seen) != 3 {
		t.Fatalf("router used %d of 3 backends", len(seen))
	}
}

func TestPlacementPolicyChangesLatency(t *testing.T) {
	// Under light load MMEM beats 1:3 per token (idle-latency-bound).
	_, tsMMEM := newTestServer(t, 0, 2)
	_, ts13 := newTestServer(t, 3, 2)
	_, a := generate(t, tsMMEM, `{"max_tokens":64}`)
	_, b := generate(t, ts13, `{"max_tokens":64}`)
	if a.VirtualLatencyMs >= b.VirtualLatencyMs {
		t.Fatalf("MMEM latency %v should beat 1:3 %v at light load", a.VirtualLatencyMs, b.VirtualLatencyMs)
	}
}

func TestDefaultsAndErrors(t *testing.T) {
	_, ts := newTestServer(t, 0, 1)
	// Default token count.
	_, out := generate(t, ts, `{}`)
	if out.Tokens != 64 {
		t.Fatalf("default tokens = %d, want 64", out.Tokens)
	}
	// Bad JSON.
	resp, _ := generate(t, ts, `{nope`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	// Oversized request.
	resp, _ = generate(t, ts, `{"max_tokens":100000}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized status = %d", resp.StatusCode)
	}
	// Wrong method.
	getResp, err := http.Get(ts.URL + "/generate")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /generate status = %d", getResp.StatusCode)
	}
}

// metricValue returns the value of the exposition sample line starting
// with series (name plus labels) in a Prometheus text body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample in:\n%s", series, body)
	return 0
}

// TestMetricsJSON checks the serving totals at /metrics: requests,
// tokens, per-request virtual latency and the cluster serving rate.
func TestMetricsJSON(t *testing.T) {
	_, ts := newTestServer(t, 1, 2)
	for i := 0; i < 5; i++ {
		generate(t, ts, `{"max_tokens":10}`)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(b)
	if n := metricValue(t, body, `llmserve_requests_total{policy="3:1"}`); n != 5 {
		t.Fatalf("requests = %v, want 5", n)
	}
	if n := metricValue(t, body, `llmserve_tokens_total{policy="3:1"}`); n != 50 {
		t.Fatalf("tokens = %v, want 50", n)
	}
	if n := metricValue(t, body, "llmserve_request_virtual_ns_count"); n != 5 {
		t.Fatalf("latency count = %v, want 5", n)
	}
	if sum := metricValue(t, body, "llmserve_request_virtual_ns_sum"); sum <= 0 {
		t.Fatalf("latency sum = %v, want > 0", sum)
	}
	if rate := metricValue(t, body, "llmserve_cluster_tokens_per_sec"); rate <= 0 {
		t.Fatalf("cluster rate = %v, want > 0", rate)
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, ts := newTestServer(t, 0, 4)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/generate", "application/json",
				bytes.NewBufferString(`{"max_tokens":4}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if served := s.requestsC.Value(); served != 32 {
		t.Fatalf("served %v of 32 concurrent requests", served)
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero backends should panic")
		}
	}()
	New(llm.NewCluster(), llm.Fig10Policies()[0], 0)
}

func TestMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, 1, 2)
	for i := 0; i < 4; i++ {
		generate(t, ts, `{"max_tokens":10}`)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE llmserve_requests_total counter",
		`llmserve_requests_total{policy="3:1"} 4`,
		"# TYPE llmserve_cluster_tokens_per_sec gauge",
		"# TYPE llmserve_request_virtual_ns histogram",
		"llmserve_request_virtual_ns_count 4",
		`llmserve_request_virtual_ns_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	s, ts := newTestServer(t, 0, 2)
	for i := 0; i < 3; i++ {
		generate(t, ts, `{"max_tokens":10}`)
	}
	resp, err := http.Get(ts.URL + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 1 thread_name metadata + 3 request spans.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("trace has %d events, want 4", len(doc.TraceEvents))
	}
	if s.Tracer().Len() != 3 {
		t.Fatalf("tracer recorded %d spans, want 3", s.Tracer().Len())
	}
}

func TestQueueWaitReflectsRouterImbalance(t *testing.T) {
	// With one backend every request after the first waits for the
	// previous one (frontier == the single backend's timeline, so wait
	// is 0); with two backends and round-robin, waits stay 0 while the
	// timelines advance evenly. The key invariant: waits are finite,
	// non-negative, and the virtual timeline is monotone.
	_, ts := newTestServer(t, 0, 2)
	for i := 0; i < 6; i++ {
		_, out := generate(t, ts, `{"max_tokens":10}`)
		if out.QueueWaitMs < 0 {
			t.Fatalf("negative queue wait %v", out.QueueWaitMs)
		}
	}
}

// TestConcurrentMetricsAndGenerate exercises registry writes (generate)
// racing snapshots (/metrics) under -race: the satellite coverage for
// concurrent registry access from HTTP handlers.
func TestConcurrentMetricsAndGenerate(t *testing.T) {
	s, ts := newTestServer(t, 0, 4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/generate", "application/json",
				bytes.NewBufferString(`{"max_tokens":4}`))
			if err == nil {
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range []string{"/metrics", "/trace.json"} {
				resp, err := http.Get(ts.URL + path)
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Registry().Snapshot()
	fam, ok := snap.Find("llmserve_requests_total")
	if !ok || len(fam.Metrics) != 1 {
		t.Fatalf("requests family = %+v", fam)
	}
	if got := fam.Metrics[0].Value; got != 16 {
		t.Fatalf("requests counter = %v, want 16", got)
	}
}

// TestRetryDefaultsMatchKVStore: a schedule whose client block sets only
// timeout_ms gives llmserve and the kvstore closed loop the same retry
// count and base backoff (3 retries, backoff = timeout).
func TestRetryDefaultsMatchKVStore(t *testing.T) {
	const timeoutNs = 1e6
	schedule, err := fault.ParseSchedule(strings.NewReader(`{
	  "faults": [{"at_ms": 0, "kind": "device-stall", "target": "/cxl", "severity": 1}],
	  "client": {"timeout_ms": 1}
	}`))
	if err != nil {
		t.Fatal(err)
	}

	// llmserve: every generation outlasts a 1 ms budget, so the request
	// exhausts its retries and gets 504.
	s, ts := newTestServer(t, 0, 2)
	s.SetResilience(schedule, 0)
	resp, _ := generate(t, ts, `{"max_tokens":64}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	llmRetries := s.retryC.Value()
	if s.client.BackoffNs != timeoutNs {
		t.Fatalf("llmserve backoff %v, want %v", s.client.BackoffNs, timeoutNs)
	}

	// kvstore: the stalled CXL device times out every attempt that touches
	// it; backoffs double per retry from the base, so the smallest wait is
	// the base backoff and the largest is base * 2^(retries-1).
	d, err := kvstore.Deploy(kvstore.ConfInter11, kvstore.DeployOptions{SimKeys: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, schedule)
	if err != nil {
		t.Fatal(err)
	}
	rc.Ops = 2_000
	rc.Metrics = obs.NewRegistry()
	res := kvstore.Run(d.Store, d.Alloc, rc)
	if res.Failed == 0 {
		t.Fatal("no kvstore op exhausted its retries")
	}
	backoff := rc.Metrics.Histogram(obs.MetricKVBackoff, "", nil).Unwrap()
	if backoff.Min() != timeoutNs {
		t.Fatalf("kvstore base backoff %v, want %v", backoff.Min(), timeoutNs)
	}
	kvRetries := 1.0
	for b := backoff.Min(); b < backoff.Max(); b *= 2 {
		kvRetries++
	}
	if llmRetries != kvRetries || llmRetries != 3 {
		t.Fatalf("retries: llmserve %v, kvstore %v; want 3 for both", llmRetries, kvRetries)
	}
}
