package pool

import (
	"errors"
	"testing"
	"testing/quick"

	"cxlsim/internal/memsim"
)

// used sums the pool's allocated bytes across its devices.
func used(p *Pool) uint64 {
	var sum uint64
	for _, d := range p.devices {
		sum += d.used
	}
	return sum
}

func TestNewValidation(t *testing.T) {
	d := NewDevice("mld0", 1<<30)
	if _, err := New(0, d); err == nil {
		t.Error("0 hosts should error")
	}
	if _, err := New(MaxHeads+1, d); err == nil {
		t.Error("beyond the CXL 2.0 MLD head limit should error")
	}
	if _, err := New(4); err == nil {
		t.Error("no devices should error")
	}
	if _, err := New(MaxHeads, d); err != nil {
		t.Errorf("16 heads is legal: %v", err)
	}
}

func TestAllocReleaseAccounting(t *testing.T) {
	d := NewDevice("mld0", 100)
	p, err := New(4, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc(0, 60); err != nil {
		t.Fatal(err)
	}
	if err := p.Alloc(1, 40); err != nil {
		t.Fatal(err)
	}
	if used(p) != 100 || p.Capacity() != 100 {
		t.Fatalf("used=%d cap=%d", used(p), p.Capacity())
	}
	if p.HostUsage(0) != 60 || p.HostUsage(1) != 40 {
		t.Fatal("per-host accounting wrong")
	}
	p.Release(0, 30)
	if p.HostUsage(0) != 30 || used(p) != 70 {
		t.Fatal("release accounting wrong")
	}
	// Over-release clamps.
	p.Release(0, 1000)
	if p.HostUsage(0) != 0 {
		t.Fatal("over-release should clamp to zero")
	}
}

func TestAllocExhaustionAtomic(t *testing.T) {
	a, b := NewDevice("mld0", 50), NewDevice("mld1", 50)
	p, _ := New(2, a, b)
	if err := p.Alloc(0, 80); err != nil { // spans both devices
		t.Fatal(err)
	}
	if a.used+b.used != 80 {
		t.Fatal("cross-device allocation accounting wrong")
	}
	err := p.Alloc(1, 30) // only 20 left
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	// Failed alloc must not leak partial grants.
	if used(p) != 80 || p.HostUsage(1) != 0 {
		t.Fatal("failed alloc leaked partial grants")
	}
}

func TestAllocEdgeCases(t *testing.T) {
	p, _ := New(2, NewDevice("mld0", 10))
	if err := p.Alloc(5, 1); err == nil {
		t.Error("unknown host should error")
	}
	if err := p.Alloc(0, 0); err != nil {
		t.Error("zero-byte alloc is a no-op")
	}
}

func TestPooledDeviceLatencyIncludesSwitch(t *testing.T) {
	pooled := NewDevice("mld0", 1<<30)
	if pooled.Resource().IdleRead <= memsim.NewCXLDevice("cxl").IdleRead {
		t.Fatal("pooled device should add a switch hop over direct-attach CXL")
	}
	if pooled.Free() != 1<<30 {
		t.Fatal("fresh device should be all free")
	}
}

func TestProvisioningStudySavings(t *testing.T) {
	// 8 bursty hosts: pooling should provision substantially less than
	// per-host peak provisioning — the §7 / Pond argument.
	const hosts = 8
	models := make([]DemandModel, hosts)
	for h := range models {
		models[h] = NewLogNormalDemand(64<<30, 0.5, int64(h+1))
	}
	res, err := ProvisioningStudy{Hosts: hosts, Epochs: 4000, Quantile: 0.99}.Run(models)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingFrac < 0.10 || res.SavingFrac > 0.60 {
		t.Fatalf("pooling saving = %.2f, want meaningful savings for bursty demand", res.SavingFrac)
	}
	if res.PooledCXLBytes == 0 {
		t.Fatal("bursty hosts need a non-empty pool")
	}
	if res.PooledLocalBytes >= res.StaticBytes {
		t.Fatal("median local provisioning must undercut p99 static provisioning")
	}
}

func TestProvisioningStudyValidation(t *testing.T) {
	m := []DemandModel{NewLogNormalDemand(1<<30, 0.3, 1)}
	cases := []ProvisioningStudy{
		{Hosts: 2, Epochs: 100, Quantile: 0.99}, // model count mismatch
		{Hosts: 1, Epochs: 5, Quantile: 0.99},   // too few epochs
		{Hosts: 1, Epochs: 100, Quantile: 1.5},  // bad quantile
	}
	for i, s := range cases {
		if _, err := s.Run(m); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestUniformDemandPoolsLittle(t *testing.T) {
	// Near-constant demand leaves nothing to pool: savings ≈ 0.
	const hosts = 4
	models := make([]DemandModel, hosts)
	for h := range models {
		models[h] = NewLogNormalDemand(64<<30, 0.01, int64(h+1))
	}
	res, err := ProvisioningStudy{Hosts: hosts, Epochs: 1000, Quantile: 0.99}.Run(models)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingFrac > 0.08 {
		t.Fatalf("constant demand saving = %.3f, want ≈0", res.SavingFrac)
	}
}

func TestInterference(t *testing.T) {
	d := NewDevice("mld0", 1<<40)
	alone, shared := Interference(d, 10, 3, 14)
	if shared <= alone {
		t.Fatalf("aggressors must inflate victim latency: %v vs %v", alone, shared)
	}
	// Without aggressors the two must coincide.
	a2, s2 := Interference(d, 10, 0, 0)
	if a2 != s2 {
		t.Fatal("no aggressors should mean no interference")
	}
}

func TestDemandModelValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid demand model should panic")
		}
	}()
	NewLogNormalDemand(0, 0.5, 1)
}

// Property: pool accounting conserves bytes across arbitrary
// alloc/release sequences.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		p, _ := New(4, NewDevice("a", 1000), NewDevice("b", 500))
		ledger := map[int]uint64{}
		for _, op := range ops {
			host := int(op % 4)
			amount := uint64(op % 97)
			if op%2 == 0 {
				if err := p.Alloc(host, amount); err == nil {
					ledger[host] += amount
				}
			} else {
				rel := amount
				if rel > ledger[host] {
					rel = ledger[host]
				}
				p.Release(host, rel)
				ledger[host] -= rel
			}
			var total uint64
			for h, want := range ledger {
				if p.HostUsage(h) != want {
					return false
				}
				total += want
			}
			if used(p) != total || used(p) > p.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
