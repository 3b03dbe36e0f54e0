package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"cxlsim/internal/kvstore"
	"cxlsim/internal/obs"
	"cxlsim/internal/workload"
)

// instrumentedRun executes one small Hot-Promote YCSB-A run with full
// observability and returns the serialized trace and registry snapshot.
func instrumentedRun(t *testing.T) ([]byte, obs.Snapshot, []string) {
	t.Helper()
	d, err := kvstore.Deploy(kvstore.ConfHotPromote, kvstore.DeployOptions{SimKeys: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	obs.InstrumentMemsim(reg)
	defer obs.InstrumentMemsim(nil)

	rc := d.RunConfigFor(workload.YCSBA, 42)
	// Long enough to cross several 10 ms epochs, so solver, tiering,
	// and utilization sampling all fire.
	rc.Ops = 6_000
	rc.Metrics = reg
	rc.Tracer = tr
	kvstore.Run(d.Store, d.Alloc, rc)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reg.Snapshot(), tr.Tracks()
}

// TestInstrumentedRun covers two acceptance criteria with two identical
// runs: (1) determinism — same seed must produce byte-identical trace
// files and prometheus snapshots (no wall-clock timestamps or
// map-iteration nondeterminism anywhere in the pipeline); (2) coverage —
// the trace spans ≥3 subsystems and the registry carries the canonical
// families.
func TestInstrumentedRun(t *testing.T) {
	trace1, snap1, tracks := instrumentedRun(t)
	trace2, snap2, _ := instrumentedRun(t)

	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("same-seed traces differ (%d vs %d bytes)", len(trace1), len(trace2))
	}
	p1, p2 := promText(t, snap1), promText(t, snap2)
	if p1 != p2 {
		t.Fatalf("same-seed prometheus snapshots differ:\n--- run 1\n%s\n--- run 2\n%s", p1, p2)
	}

	want := map[string]bool{"sim": false, "kvstore": false, "tiering": false, "memsim": false}
	for _, track := range tracks {
		if _, ok := want[track]; ok {
			want[track] = true
		}
	}
	for track, seen := range want {
		if !seen {
			t.Errorf("trace missing track %q (have %v)", track, tracks)
		}
	}

	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace1, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("suspiciously small trace: %d events", len(doc.TraceEvents))
	}

	for _, fam := range []string{
		obs.MetricSimScheduled, obs.MetricSimFired, obs.MetricSimQueueDepth,
		obs.MetricSolves, obs.MetricUtilization,
		obs.MetricTierPromotedPages, obs.MetricTierMigratedBytes, obs.MetricTierThreshold,
		"kvstore_ops_total", "kvstore_op_latency_ns",
	} {
		f, ok := snap1.Find(fam)
		if !ok || len(f.Metrics) == 0 {
			t.Errorf("registry missing family %q", fam)
		}
	}

	// The prometheus rendering of a real run must have all three metric
	// shapes the acceptance criteria require.
	for _, wantLine := range []string{
		"# TYPE kvstore_ops_total counter",
		"# TYPE memsim_resource_utilization gauge",
		"# TYPE kvstore_op_latency_ns histogram",
		`le="+Inf"`,
	} {
		if !strings.Contains(p1, wantLine) {
			t.Errorf("prometheus output missing %q", wantLine)
		}
	}
}

func promText(t *testing.T, snap obs.Snapshot) string {
	t.Helper()
	var b strings.Builder
	if err := obs.WriteProm(&b, snap); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
