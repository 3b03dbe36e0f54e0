package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformRange(t *testing.T) {
	u := NewUniform(100, 1)
	for i := 0; i < 10000; i++ {
		if v := u.Next(); v >= 100 {
			t.Fatalf("uniform produced %d outside [0,100)", v)
		}
	}
	if u.N() != 100 {
		t.Fatalf("N = %d", u.N())
	}
}

func TestUniformCoverage(t *testing.T) {
	u := NewUniform(10, 2)
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		seen[u.Next()] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform over 10 items hit only %d", len(seen))
	}
}

func TestUniformEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for n=0")
		}
	}()
	NewUniform(0, 1)
}

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(1000, 7)
	for i := 0; i < 100000; i++ {
		if v := z.Next(); v >= 1000 {
			t.Fatalf("zipfian produced %d outside [0,1000)", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(10000, 3)
	counts := make([]int, 10000)
	const draws = 500000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Item 0 must be by far the most popular: under theta=0.99 over 10k
	// items it should receive several percent of all draws.
	if frac := float64(counts[0]) / draws; frac < 0.03 {
		t.Fatalf("hottest item got %.4f of draws, want > 0.03", frac)
	}
	// Top-100 items should dominate: >50% of mass.
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if frac := float64(top) / draws; frac < 0.5 {
		t.Fatalf("top-100 items got %.3f of draws, want > 0.5", frac)
	}
	// Popularity must broadly decrease: first decile ≥ last decile.
	first, last := 0, 0
	for i := 0; i < 1000; i++ {
		first += counts[i]
		last += counts[9000+i]
	}
	if first <= last {
		t.Fatalf("zipfian not decreasing: first decile %d, last %d", first, last)
	}
}

func TestZipfianBadParamsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipfian(0, 1) },
		func() { NewZipfianTheta(10, 0, 1) },
		func() { NewZipfianTheta(10, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	s := NewScrambledZipfian(10000, 11)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := s.Next()
		if v >= 10000 {
			t.Fatalf("scrambled zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Skew preserved: the hottest key should still carry several % of
	// draws, but it should NOT be key 0 specifically (scrambling).
	maxKey, maxCount := uint64(0), 0
	for k, c := range counts {
		if c > maxCount {
			maxKey, maxCount = k, c
		}
	}
	if frac := float64(maxCount) / draws; frac < 0.03 {
		t.Fatalf("hottest scrambled key got %.4f, want > 0.03", frac)
	}
	_ = maxKey // key identity is arbitrary; only skew matters
}

func TestLatestFavorsNewest(t *testing.T) {
	l := NewLatest(1000, 5)
	hi := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := l.Next()
		if v >= 1000 {
			t.Fatalf("latest out of range: %d", v)
		}
		if v >= 900 {
			hi++
		}
	}
	if frac := float64(hi) / draws; frac < 0.5 {
		t.Fatalf("newest decile got %.3f of draws, want > 0.5", frac)
	}
}

func TestLatestInsertShiftsHotSet(t *testing.T) {
	l := NewLatest(100, 9)
	idx := l.Insert()
	if idx != 100 {
		t.Fatalf("insert returned %d, want 100", idx)
	}
	if l.N() != 101 {
		t.Fatalf("N after insert = %d, want 101", l.N())
	}
	// The new item should now be drawable and hot.
	seenNew := 0
	for i := 0; i < 10000; i++ {
		if l.Next() == 100 {
			seenNew++
		}
	}
	if seenNew == 0 {
		t.Fatal("newly inserted item never drawn")
	}
}

func TestYCSBMixRatios(t *testing.T) {
	for _, mix := range StandardMixes() {
		total := mix.Read + mix.Update + mix.Insert + mix.Scan
		if math.Abs(total-1.0) > 1e-9 {
			t.Errorf("%s ratios sum to %v, want 1", mix.Name, total)
		}
		if mix.DefaultValueSize != 1024 {
			t.Errorf("%s value size %d, want 1024 (paper default)", mix.Name, mix.DefaultValueSize)
		}
	}
}

func TestYCSBAOpDistribution(t *testing.T) {
	y := NewYCSB(YCSBA, 10000, 21)
	var reads, updates int
	const draws = 100000
	for i := 0; i < draws; i++ {
		op := y.Next()
		switch op.Kind {
		case OpRead:
			reads++
		case OpUpdate:
			updates++
		default:
			t.Fatalf("YCSB-A produced unexpected op %v", op.Kind)
		}
	}
	if rf := float64(reads) / draws; math.Abs(rf-0.5) > 0.02 {
		t.Fatalf("YCSB-A read fraction %.3f, want ≈0.5", rf)
	}
}

func TestYCSBCReadOnly(t *testing.T) {
	y := NewYCSB(YCSBC, 1000, 22)
	for i := 0; i < 10000; i++ {
		if op := y.Next(); op.Kind != OpRead {
			t.Fatalf("YCSB-C produced %v", op.Kind)
		}
	}
}

func TestYCSBDInsertGrows(t *testing.T) {
	const start = 1000
	y := NewYCSB(YCSBD, start, 23)
	inserts := 0
	for i := 0; i < 10000; i++ {
		if op := y.Next(); op.Kind == OpInsert {
			// Each insert appends one fresh key past the current records.
			if want := uint64(start + inserts); op.Key != want {
				t.Fatalf("insert %d key = %d, want %d", inserts, op.Key, want)
			}
			inserts++
		}
	}
	if inserts == 0 {
		t.Fatal("YCSB-D produced no inserts")
	}
}

func TestYCSBUnknownDistributionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewYCSB(YCSBMix{Name: "bad", Read: 1, Distribution: "nope"}, 10, 1)
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "READ" || OpUpdate.String() != "UPDATE" ||
		OpInsert.String() != "INSERT" || OpScan.String() != "SCAN" {
		t.Fatal("OpKind strings wrong")
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown OpKind should still render")
	}
}

func TestDeterministicSeeding(t *testing.T) {
	a, b := NewYCSB(YCSBA, 1000, 77), NewYCSB(YCSBA, 1000, 77)
	for i := 0; i < 1000; i++ {
		oa, ob := a.Next(), b.Next()
		if oa != ob {
			t.Fatalf("same seed diverged at op %d: %v vs %v", i, oa, ob)
		}
	}
}

// Property: every generator stays within its item space.
func TestPropertyGeneratorsInRange(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := uint64(nRaw%1000) + 2
		gens := []Generator{
			NewUniform(n, seed),
			NewZipfian(n, seed),
			NewScrambledZipfian(n, seed),
			NewLatest(n, seed),
		}
		for _, g := range gens {
			for i := 0; i < 200; i++ {
				if g.Next() >= g.N() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(1<<20, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

func BenchmarkScrambledZipfianNext(b *testing.B) {
	z := NewScrambledZipfian(1<<20, 1)
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}

// BenchmarkScrambledZipfianFill is BenchmarkScrambledZipfianNext in
// warm-up-sized batches over GOMAXPROCS workers; ns/op is per key.
func BenchmarkScrambledZipfianFill(b *testing.B) {
	z := NewScrambledZipfian(1<<20, 1)
	keys := make([]uint64, 1<<16)
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(keys) {
		z.Fill(keys[:min(len(keys), b.N-i)], 0)
	}
}

func BenchmarkYCSBNext(b *testing.B) {
	y := NewYCSB(YCSBA, 1<<20, 1)
	for i := 0; i < b.N; i++ {
		y.Next()
	}
}
