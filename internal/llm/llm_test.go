package llm

import (
	"math"
	"testing"
)

func TestFig10aSweep(t *testing.T) {
	c := NewCluster()
	series := c.Fig10a(6, 0)
	if len(series) != 4 {
		t.Fatalf("want 4 policies, got %d", len(series))
	}
	for name, pts := range series {
		if len(pts) != 6 {
			t.Fatalf("%s: want 6 points", name)
		}
		for i, p := range pts {
			if p.Backends != i+1 || p.Threads != (i+1)*BackendThreads {
				t.Fatalf("%s point %d mislabeled: %+v", name, i, p)
			}
			if p.TokensPerSec <= 0 {
				t.Fatalf("%s point %d: nonpositive rate", name, i)
			}
		}
	}
}

func TestFig10bBackendBandwidth(t *testing.T) {
	c := NewCluster()
	// Linear growth at low thread counts…
	b4, b8 := c.BackendBandwidth(4), c.BackendBandwidth(8)
	if r := b8 / b4; math.Abs(r-2) > 0.1 {
		t.Errorf("4→8 thread bandwidth scaling = %.2f, want ≈2", r)
	}
	// …then a plateau.
	b24 := c.BackendBandwidth(24)
	if b48 := c.BackendBandwidth(48); b48 > b24+0.01 {
		t.Errorf("bandwidth must plateau: 48 threads = %.1f > 24 threads = %.1f", b48, b24)
	}
}

func TestFig10cKVCacheBandwidth(t *testing.T) {
	c := NewCluster()
	// Above the model-load floor, traffic initially grows roughly
	// linearly with cache size.
	b0, b1, b2 := c.KVCacheBandwidth(0), c.KVCacheBandwidth(0.5e9), c.KVCacheBandwidth(1e9)
	if (b2 - b0) <= (b1-b0)*1.5 {
		t.Errorf("KV traffic should grow near-linearly early: %.2f vs %.2f", b1, b2)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for kv := 0.0; kv <= 32e9; kv += 1e9 {
		b := c.KVCacheBandwidth(kv)
		if b < prev {
			t.Fatalf("bandwidth decreased at kv=%.0f", kv)
		}
		prev = b
	}
}

func TestPanicsOnBadInputs(t *testing.T) {
	c := NewCluster()
	for name, f := range map[string]func(){
		"backends": func() { c.ServingRate(Fig10Policies()[0], 0) },
		"threads":  func() { c.BackendBandwidth(0) },
		"kv":       func() { c.KVCacheBandwidth(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPoliciesShape(t *testing.T) {
	ps := Fig10Policies()
	if len(ps) != 4 || ps[0].Name != "MMEM" || ps[0].LowM != 0 {
		t.Fatalf("unexpected policy set: %+v", ps)
	}
}

func BenchmarkServingRate(b *testing.B) {
	c := NewCluster()
	p := Fig10Policies()[1]
	for i := 0; i < b.N; i++ {
		c.ServingRate(p, 5)
	}
}
