package kvstore

import (
	"reflect"
	"testing"

	"cxlsim/internal/workload"
)

// warmed deploys Hot-Promote and warms it with mix.
func warmed(t *testing.T, mix workload.YCSBMix) *Deployment {
	t.Helper()
	d, err := Deploy(ConfHotPromote, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	d.Warm(mix, 8, 50_000, 7)
	return d
}

// TestLoadWarmMatchesWarm: a warm state saved from a YCSB-B warm-up and
// loaded into a fresh deployment runs YCSB-A exactly as a deployment
// warmed with YCSB-A itself — the WarmKey sharing rule, checked on every
// Result field at full precision.
func TestLoadWarmMatchesWarm(t *testing.T) {
	if WarmKey(workload.YCSBA) != WarmKey(workload.YCSBB) || WarmKey(workload.YCSBB) != WarmKey(workload.YCSBC) {
		t.Fatal("YCSB-A, -B and -C draw the same key stream and must share a WarmKey")
	}
	run := func(d *Deployment) Result {
		rc := d.RunConfigFor(workload.YCSBA, 11)
		rc.Ops = 20_000
		return Run(d.Store, d.Alloc, rc)
	}
	src := warmed(t, workload.YCSBA)
	loaded, err := Deploy(ConfHotPromote, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	loaded.LoadWarm(warmed(t, workload.YCSBB).SaveWarm())
	// Saving flushes lazy decay, which changes no bit of what follows.
	if !reflect.DeepEqual(loaded.SaveWarm(), src.SaveWarm()) {
		t.Fatal("loaded warm state differs from a direct YCSB-A warm-up")
	}
	direct, got := run(src), run(loaded)
	if !reflect.DeepEqual(got, direct) {
		t.Fatalf("loaded warm state diverged:\n got %+v\nwant %+v", got, direct)
	}
	if direct.Migrated == 0 {
		t.Fatal("the run migrated nothing: the comparison does not exercise the daemon")
	}
}

// TestYCSBDWarmsDifferently: the latest distribution draws another key
// stream, so its warm state differs and its WarmKey must too.
func TestYCSBDWarmsDifferently(t *testing.T) {
	if WarmKey(workload.YCSBD) == WarmKey(workload.YCSBA) {
		t.Fatal("YCSB-D shares YCSB-A's WarmKey")
	}
	if reflect.DeepEqual(warmed(t, workload.YCSBD).SaveWarm(), warmed(t, workload.YCSBA).SaveWarm()) {
		t.Fatal("YCSB-D and YCSB-A warm-ups reached the same state")
	}
}

// TestSaveWarmNilWithoutDaemon: daemon-less deployments have no warm
// state, and loading none is a no-op.
func TestSaveWarmNilWithoutDaemon(t *testing.T) {
	d, err := Deploy(ConfInter11, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if w := d.SaveWarm(); w != nil {
		t.Fatalf("SaveWarm = %+v, want nil", w)
	}
	d.LoadWarm(nil)
}
