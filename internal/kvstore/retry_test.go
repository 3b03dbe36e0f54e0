package kvstore

import (
	"testing"

	"cxlsim/internal/fault"
	"cxlsim/internal/workload"
)

// cxlFaultSchedule stalls both CXL devices for most of a short run, with
// a client timeout tight enough that CXL-resident accesses blow it.
func cxlFaultSchedule() *fault.Schedule {
	return &fault.Schedule{
		Faults: []fault.Fault{
			{At: 0, Duration: 50e6, Kind: fault.DeviceStall, Target: "/cxl", Severity: 0.9},
		},
		Client: &fault.Resilience{TimeoutNs: 2e6, BackoffNs: 0.5e6, MaxRetries: 2},
	}
}

// TestRetryPathAccounting drives the closed-loop client through the
// timeout/backoff/retry path and checks the op accounting stays exact.
func TestRetryPathAccounting(t *testing.T) {
	d, err := Deploy(ConfInter11, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	d.Warm(workload.YCSBC, 120, 100_000, 7)
	rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, cxlFaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	rc.Ops = 4_000
	res := Run(d.Store, d.Alloc, rc)

	if res.Timeouts == 0 {
		t.Fatal("stalled CXL devices with a 2ms budget produced no timeouts")
	}
	if res.Retries == 0 {
		t.Fatal("timeouts produced no retries")
	}
	if res.Failed == 0 {
		t.Fatal("MaxRetries=2 under a persistent stall should exhaust some ops")
	}
	// A retry is always preceded by a timeout, and every failed op burned
	// MaxRetries+1 attempts, each a timeout.
	if res.Retries > res.Timeouts {
		t.Fatalf("retries %d exceed timeouts %d", res.Retries, res.Timeouts)
	}
	if res.Failed > res.Timeouts {
		t.Fatalf("failed ops %d exceed timeouts %d", res.Failed, res.Timeouts)
	}
	if res.Failed > uint64(rc.Ops) {
		t.Fatalf("failed ops %d exceed total ops %d", res.Failed, rc.Ops)
	}
}

// TestRetryPathDeterministic: the retry machinery must not perturb
// determinism — identical seeds and schedules give identical results.
func TestRetryPathDeterministic(t *testing.T) {
	run := func() Result {
		d, err := Deploy(ConfInter11, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		d.Warm(workload.YCSBC, 120, 100_000, 7)
		rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, cxlFaultSchedule())
		if err != nil {
			t.Fatal(err)
		}
		rc.Ops = 3_000
		return Run(d.Store, d.Alloc, rc)
	}
	a, b := run(), run()
	if a.ThroughputOpsPerSec != b.ThroughputOpsPerSec ||
		a.Timeouts != b.Timeouts || a.Retries != b.Retries || a.Failed != b.Failed {
		t.Fatalf("identical fault replays diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestGenerousTimeoutIsInert: a client timeout no attempt can reach
// leaves a faulted run identical to the same schedule without a client
// block — the zero-cost contract for the retry machinery.
func TestGenerousTimeoutIsInert(t *testing.T) {
	run := func(client *fault.Resilience) Result {
		d, err := Deploy(ConfInter11, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		d.Warm(workload.YCSBC, 120, 100_000, 7)
		s := &fault.Schedule{
			Faults: []fault.Fault{{At: 1e6, Duration: 5e6, Kind: fault.LinkDegrade, Target: "/cxl0", Severity: 0.5}},
			Client: client,
		}
		rc, err := d.RunConfigWithFaults(workload.YCSBC, 42, s)
		if err != nil {
			t.Fatal(err)
		}
		rc.Ops = 3_000
		return Run(d.Store, d.Alloc, rc)
	}
	off, generous := run(nil), run(&fault.Resilience{TimeoutNs: 1e18})
	if generous.Timeouts != 0 || generous.Retries != 0 || generous.Failed != 0 {
		t.Fatalf("generous timeout still fired: %+v", generous)
	}
	if off.ThroughputOpsPerSec != generous.ThroughputOpsPerSec ||
		off.Latency.Percentile(99) != generous.Latency.Percentile(99) {
		t.Fatalf("inert timeout changed the run: %v ops/s p99 %v vs %v ops/s p99 %v",
			off.ThroughputOpsPerSec, off.Latency.Percentile(99),
			generous.ThroughputOpsPerSec, generous.Latency.Percentile(99))
	}
}
