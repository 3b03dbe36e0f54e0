package workload

import (
	"sync"
	"testing"
)

// TestFillMatchesNext: Fill returns exactly the keys repeated Next calls
// would, at any worker count and batch length, and leaves the generator
// where those calls would: a run of Fills followed by Nexts is the Next
// stream.
func TestFillMatchesNext(t *testing.T) {
	lengths := []int{0, 1, fillChunk - 1, fillChunk + 1, 100_000}
	for _, n := range []uint64{1, 2, 1 << 16, 1 << 20} {
		for _, seed := range []int64{1, 42, -7} {
			for _, workers := range []int{1, 2, 7} {
				batched, serial := NewScrambledZipfian(n, seed), NewScrambledZipfian(n, seed)
				for _, k := range lengths {
					keys := make([]uint64, k)
					batched.Fill(keys, workers)
					for i, got := range keys {
						if want := serial.Next(); got != want {
							t.Fatalf("n=%d seed=%d workers=%d len=%d: key %d = %d, want %d",
								n, seed, workers, k, i, got, want)
						}
					}
				}
				for i := 0; i < 1000; i++ {
					if got, want := batched.Next(), serial.Next(); got != want {
						t.Fatalf("n=%d seed=%d workers=%d: Next %d after Fill = %d, want %d",
							n, seed, workers, i, got, want)
					}
				}
			}
		}
	}
}

// TestScrambledKeysOnlyWithoutInserts: YCSB hands out its key generator
// only when every op draws one key from it.
func TestScrambledKeysOnlyWithoutInserts(t *testing.T) {
	for _, mix := range []YCSBMix{YCSBA, YCSBB, YCSBC} {
		if NewYCSB(mix, 1000, 1).ScrambledKeys() == nil {
			t.Errorf("%s: ScrambledKeys = nil", mix.Name)
		}
	}
	inserting := YCSBMix{Name: "zipfian-insert", Read: 0.9, Insert: 0.1, Distribution: "zipfian"}
	for _, mix := range []YCSBMix{YCSBD, inserting} {
		if NewYCSB(mix, 1000, 1).ScrambledKeys() != nil {
			t.Errorf("%s: ScrambledKeys != nil", mix.Name)
		}
	}
	// With the op kinds thrown away, the generator's keys are YCSB's.
	y := NewYCSB(YCSBB, 1<<12, 3)
	keys := make([]uint64, 5000)
	NewYCSB(YCSBB, 1<<12, 3).ScrambledKeys().Fill(keys, 2)
	for i, k := range keys {
		if op := y.Next(); op.Key != k {
			t.Fatalf("key %d = %d, want %d", i, k, op.Key)
		}
	}
}

// TestZetaMemoConcurrent: generators built concurrently at a size no
// other test uses all get the unmemoized sum, bit for bit.
func TestZetaMemoConcurrent(t *testing.T) {
	const n = 1<<16 + 17
	want := zetaStatic(n, ZipfianConstant)
	zs := make([]*Zipfian, 8)
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zs[i] = NewZipfian(n, int64(i))
		}()
	}
	wg.Wait()
	for i, z := range zs {
		if z.zetan != want {
			t.Errorf("generator %d: zetan = %v, want %v", i, z.zetan, want)
		}
	}
	if got := zeta(n, ZipfianConstant); got != want {
		t.Errorf("zeta = %v, want %v", got, want)
	}
}

// TestLatestGrowMatchesFresh: a Latest grown by inserts from a memoized
// start continues the same summation, so it matches a generator built
// fresh at the grown size bit for bit.
func TestLatestGrowMatchesFresh(t *testing.T) {
	const start, inserts = 5000, 1234
	NewZipfian(start, 0) // make sure the start size is memoized
	grown := NewLatest(start, 9)
	for i := 0; i < inserts; i++ {
		grown.Insert()
	}
	fresh := NewLatest(start+inserts, 9)
	if grown.z.zetan != fresh.z.zetan || grown.z.eta != fresh.z.eta {
		t.Fatalf("grown zetan/eta = %v/%v, fresh %v/%v",
			grown.z.zetan, grown.z.eta, fresh.z.zetan, fresh.z.eta)
	}
	for i := 0; i < 1000; i++ {
		if got, want := grown.Next(), fresh.Next(); got != want {
			t.Fatalf("draw %d: grown %d, fresh %d", i, got, want)
		}
	}
}
