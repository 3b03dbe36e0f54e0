package kvstore

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"cxlsim/internal/sim"
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

// warmSerial is Warm drawing every key with YCSB.Next: the reference the
// batched key stream must reproduce.
func warmSerial(d *Deployment, mix workload.YCSBMix, epochs, drawsPerEpoch int, seed int64) {
	gen := workload.NewYCSB(mix, uint64(d.Store.cfg.SimKeys), seed)
	space := d.Store.Space()
	counts := make([]uint32, len(space.Pages))
	weight := d.Store.depth + valueLines
	var now sim.Time
	for e := 0; e < epochs; e++ {
		now += epochNs
		for i := 0; i < drawsPerEpoch; i++ {
			op := gen.Next()
			counts[d.Store.pageOf(op.Key%uint64(d.Store.cfg.SimKeys))]++
		}
		space.TouchCounts(counts, weight)
		d.Daemon.Tick(now, space, d.Alloc)
		space.DecayHeat(0.5)
	}
	d.warmDraws += epochs * drawsPerEpoch
}

// waitGoroutines fails t unless the goroutine count falls back to want
// within a few seconds: a warm-up's key producer must exit once the
// warm-up has taken its last batch.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want %d: a key producer outlived its warm-up", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWarmMatchesSerial: Warm's batched draws (YCSB-A) and its serial
// path (YCSB-D, which inserts) reach the warm state of the draw-by-draw
// reference loop, and the key producer has exited afterwards.
func TestWarmMatchesSerial(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, mix := range []workload.YCSBMix{workload.YCSBA, workload.YCSBD} {
		ref, err := Deploy(ConfHotPromote, fastOpts())
		if err != nil {
			t.Fatal(err)
		}
		warmSerial(ref, mix, 8, 50_000, 7)
		if got, want := warmed(t, mix).SaveWarm(), ref.SaveWarm(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Warm state differs from the serial reference", mix.Name)
		}
		waitGoroutines(t, start)
	}
}

// TestKeyStreamStopsEarly: a caller that stops a key stream before
// taking every batch does not leave its producer blocked.
func TestKeyStreamStopsEarly(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, mix := range []workload.YCSBMix{workload.YCSBA, workload.YCSBD} {
		ks := newKeyStream(mix, 1<<12, 5, 10*1000, 1000)
		if got := len(ks.next()); got != 1000 {
			t.Fatalf("%s: first batch has %d keys, want 1000", mix.Name, got)
		}
		ks.stop()
		waitGoroutines(t, start)
	}
}

// warmCacheSerial is WarmCache drawing every key with YCSB.Next.
func warmCacheSerial(s *Store, mix workload.YCSBMix, draws int, seed int64) {
	gen := workload.NewYCSB(mix, uint64(s.cfg.SimKeys), seed)
	for i := 0; i < draws; i++ {
		s.reference(gen.Next().Key % uint64(s.cfg.SimKeys))
	}
	s.hits, s.misses = 0, 0
}

// TestWarmCacheMatchesSerial: WarmCache's batched draws (YCSB-A) and its
// serial path (YCSB-D) leave the CLOCK cache exactly as the draw-by-draw
// reference does, over a draw count that ends in a partial batch, and
// the key producer has exited afterwards.
func TestWarmCacheMatchesSerial(t *testing.T) {
	const draws = 3*warmCacheBatch + 123
	start := runtime.NumGoroutine()
	for _, mix := range []workload.YCSBMix{workload.YCSBA, workload.YCSBD} {
		var st [2]*Store
		for i := range st {
			d, err := Deploy(ConfMMEMSSD04, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			st[i] = d.Store
		}
		st[0].WarmCache(mix, draws, 991)
		waitGoroutines(t, start)
		warmCacheSerial(st[1], mix, draws, 991)
		got, want := st[0], st[1]
		if !reflect.DeepEqual(got.clock, want.clock) ||
			got.clockHand != want.clockHand || got.memKeys != want.memKeys {
			t.Errorf("%s: WarmCache state differs from the serial reference (hand %d/%d, keys %d/%d)",
				mix.Name, got.clockHand, want.clockHand, got.memKeys, want.memKeys)
		}
		if want.clockHand == 0 {
			t.Errorf("%s: the reference evicted nothing: the comparison does not exercise CLOCK", mix.Name)
		}
	}
}

// BenchmarkWarmCache times Run's Flash warm-up at paper scale: 4 × 1<<20
// YCSB-A draws on MMEM-SSD-0.4.
func BenchmarkWarmCache(b *testing.B) {
	d, err := Deploy(ConfMMEMSSD04, DeployOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Store.WarmCache(workload.YCSBA, 4*d.Store.SimKeys(), 991)
	}
}

// BenchmarkEpochFlows times one epoch's flow solve and latency refresh
// at paper scale (1<<20 keys) on a daemon-less in-memory and Flash
// configuration, after 1,000 YCSB-A ops (untimed) charge the epoch's
// traffic as Run does.
func BenchmarkEpochFlows(b *testing.B) {
	for _, name := range []ConfigName{ConfInter11, ConfMMEMSSD04} {
		b.Run(string(name), func(b *testing.B) {
			d, err := Deploy(name, DeployOptions{SimKeys: 1 << 20})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewYCSB(workload.YCSBA, 1<<20, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 1000; j++ {
					d.Store.ServiceTime(gen.Next())
				}
				b.StartTimer()
				d.Store.EpochFlows(epochNs)
			}
		})
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
