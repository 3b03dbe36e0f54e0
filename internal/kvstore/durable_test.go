package kvstore

import (
	"encoding/binary"
	"testing"

	"cxlsim/internal/fault"
	"cxlsim/internal/sim"
	"cxlsim/internal/spill"
	"cxlsim/internal/workload"
)

// durableDeploy builds a small MMEM-SSD-0.4 deployment with the durable
// spill tier rooted at dir.
func durableDeploy(t *testing.T, dir string) *Deployment {
	t.Helper()
	d, err := Deploy(ConfMMEMSSD04, DeployOptions{
		WorkingSetBytes: 1 << 30,
		SimKeys:         4096,
		SpillDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDurableModeWritesThrough runs a write-heavy workload in durable
// mode and checks the spill tier really persisted: records on disk, a
// reopened tier recovers them, and each body self-identifies.
func TestDurableModeWritesThrough(t *testing.T) {
	dir := t.TempDir()
	d := durableDeploy(t, dir)
	rc := d.RunConfigFor(workload.YCSBA, 42)
	rc.Ops = 4000
	res := Run(d.Store, d.Alloc, rc)
	if res.ThroughputOpsPerSec <= 0 {
		t.Fatal("run produced no throughput")
	}
	st := d.Store.SpillStats()
	if st.RecordsWritten == 0 || st.LiveKeys == 0 || st.Fsyncs == 0 {
		t.Fatalf("durable mode wrote nothing: %+v", st)
	}
	shed, _, mismatch := d.Store.SpillCounts()
	if shed != 0 || mismatch != 0 {
		t.Fatalf("healthy run shed=%d mismatch=%d", shed, mismatch)
	}
	if err := d.Store.CloseSpill(); err != nil {
		t.Fatal(err)
	}

	// Reopen the directory cold: recovery must rebuild the keydir and
	// every record body must name its own key.
	sd, rep, err := spill.Open(spill.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer sd.Close()
	if !rep.Clean() || rep.LiveKeys != st.LiveKeys {
		t.Fatalf("cold recovery %s, want clean with %d live keys", rep, st.LiveKeys)
	}
	checked := 0
	for k := uint64(0); k < 4096 && checked < 50; k++ {
		var kb [8]byte
		binary.BigEndian.PutUint64(kb[:], k)
		v, ok, err := sd.Get(kb[:])
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !ok {
			continue
		}
		if binary.BigEndian.Uint64(v[:8]) != k {
			t.Fatalf("key %d: body self-identifies as %d", k, binary.BigEndian.Uint64(v[:8]))
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no recovered records to verify")
	}
}

// TestDurableRequiresFlash checks the deploy-time guard: a spill dir on
// a memory-only configuration is a configuration error, not a silent
// no-op.
func TestDurableRequiresFlash(t *testing.T) {
	_, err := Deploy(ConfMMEM, DeployOptions{
		WorkingSetBytes: 1 << 30, SimKeys: 1024, SpillDir: t.TempDir(),
	})
	if err == nil {
		t.Fatal("MMEM with a spill dir should not deploy")
	}
}

// TestDurableBrownoutShedsAndCatchesUp drives writes straight through
// ServiceTime across a brownout window and checks the degraded-mode
// contract: shed writes never reach disk, their keys go dirty, and
// healing re-persists exactly the dirty set.
func TestDurableBrownoutShedsAndCatchesUp(t *testing.T) {
	d := durableDeploy(t, t.TempDir())
	s := d.Store
	write := func(k uint64) {
		s.ServiceTime(workload.Op{Kind: workload.OpUpdate, Key: k})
	}
	for k := uint64(0); k < 10; k++ {
		write(k)
	}
	healthyRecords := s.SpillStats().RecordsWritten

	s.SetSpillHealthy(false)
	for k := uint64(100); k < 120; k++ {
		write(k)
	}
	shed, catchup, _ := s.SpillCounts()
	if shed != 20 || catchup != 0 {
		t.Fatalf("shed=%d catchup=%d, want 20/0", shed, catchup)
	}
	if got := s.SpillStats().RecordsWritten; got != healthyRecords {
		t.Fatalf("browned-out writes reached disk: %d → %d records", healthyRecords, got)
	}
	if s.SpillDirty() != 20 {
		t.Fatalf("dirty=%d, want 20", s.SpillDirty())
	}

	s.SetSpillHealthy(true)
	_, catchup, _ = s.SpillCounts()
	if catchup != 20 || s.SpillDirty() != 0 {
		t.Fatalf("after heal: catchup=%d dirty=%d, want 20/0", catchup, s.SpillDirty())
	}
	if got := s.SpillStats().RecordsWritten; got != healthyRecords+20 {
		t.Fatalf("catch-up wrote %d records, want %d", got-healthyRecords, 20)
	}
}

// TestDurableBrownoutFromSchedule wires the brownout through the real
// fault path: a device-stall on /ssd applied via an injector must flip
// the store into shedding mode exactly while the fault is active.
func TestDurableBrownoutFromSchedule(t *testing.T) {
	d := durableDeploy(t, t.TempDir())
	sched := &fault.Schedule{Faults: []fault.Fault{
		{Kind: fault.DeviceStall, Target: "/ssd", Severity: 0.8},
	}}
	inj, err := fault.NewInjector(sched, d.Machine)
	if err != nil {
		t.Fatal(err)
	}
	inj.OnChange(func(now sim.Time) {
		d.Store.SetSpillHealthy(!inj.TargetDegraded("/ssd"))
	})
	s := d.Store
	write := func(k uint64) { s.ServiceTime(workload.Op{Kind: workload.OpUpdate, Key: k}) }

	inj.ApplyAll()
	write(1)
	if shed, _, _ := s.SpillCounts(); shed != 1 {
		t.Fatalf("shed=%d during scheduled brownout, want 1", shed)
	}
	inj.Reset()
	if _, catchup, _ := s.SpillCounts(); catchup != 1 {
		t.Fatalf("catchup=%d after fault cleared, want 1", catchup)
	}
}

// TestDurableModeDoesNotPerturbResults pins the byte-identical
// guarantee: the same seeded run with and without the durable tier must
// measure exactly the same throughput and latency — spill I/O is
// durability backing, never part of the performance model.
func TestDurableModeDoesNotPerturbResults(t *testing.T) {
	run := func(spillDir string) Result {
		d, err := Deploy(ConfMMEMSSD04, DeployOptions{
			WorkingSetBytes: 1 << 30, SimKeys: 4096, SpillDir: spillDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		rc := d.RunConfigFor(workload.YCSBA, 7)
		rc.Ops = 2000
		return Run(d.Store, d.Alloc, rc)
	}
	plain := run("")
	durable := run(t.TempDir())
	if plain.ThroughputOpsPerSec != durable.ThroughputOpsPerSec {
		t.Fatalf("throughput drifted: %v vs %v", plain.ThroughputOpsPerSec, durable.ThroughputOpsPerSec)
	}
	if plain.Latency.Percentile(99) != durable.Latency.Percentile(99) ||
		plain.Latency.Mean() != durable.Latency.Mean() {
		t.Fatalf("latency drifted: p99 %v vs %v", plain.Latency.Percentile(99), durable.Latency.Percentile(99))
	}
	if plain.HitRate != durable.HitRate {
		t.Fatalf("hit rate drifted: %v vs %v", plain.HitRate, durable.HitRate)
	}
}
