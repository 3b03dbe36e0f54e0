package workload

import (
	"math"
	"math/rand"
	"testing"
)

// atReference is Zipfian.at with math.Pow on every draw: the inversion
// fastAt must reproduce bit for bit.
func atReference(z *Zipfian, u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfTheta {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// zipfianFor builds a θ-skewed generator over n items. Past 2^20 items
// the harmonic number is estimated (a summed head plus the integral of
// the tail) instead of summed: at's exactness does not depend on zetan.
func zipfianFor(n uint64, theta float64) *Zipfian {
	if n <= 1<<20 {
		return NewZipfianTheta(n, theta, 1)
	}
	return newZipfian(n, theta, zetaEstimate(n, theta), 1)
}

func zetaEstimate(n uint64, theta float64) float64 {
	head := min(n, 256)
	tail := (math.Pow(float64(n)+0.5, 1-theta) - math.Pow(float64(head)+0.5, 1-theta)) / (1 - theta)
	return zetaStatic(head, theta) + tail
}

// checkAt compares at and, when it certifies, fastAt with the reference
// at u, and reports whether fastAt fell back. Only draws that reach the
// math.Pow line count.
func checkAt(t *testing.T, z *Zipfian, u float64) (reached, fellBack bool) {
	t.Helper()
	want := atReference(z, u)
	if got := z.at(u); got != want {
		t.Fatalf("n=%d θ=%v u=%v (%#x): at = %d, math.Pow reference %d",
			z.n, z.theta, u, math.Float64bits(u), got, want)
	}
	if uz := u * z.zetan; uz < 1+z.halfTheta {
		return false, false
	}
	k, ok := z.fastAt(z.eta*u - z.eta + 1)
	if ok && k != want {
		t.Fatalf("n=%d θ=%v u=%v: fastAt = %d, reference %d", z.n, z.theta, u, k, want)
	}
	return true, !ok
}

// checkRandom runs checkAt on draws random draws and counts the draws
// that reached the math.Pow line and those fastAt left to it.
func checkRandom(t *testing.T, z *Zipfian, rng *rand.Rand, draws int) (reached, fellBack int) {
	t.Helper()
	for i := 0; i < draws; i++ {
		r, f := checkAt(t, z, rng.Float64())
		if r {
			reached++
		}
		if f {
			fellBack++
		}
	}
	return reached, fellBack
}

// boundary bisects the reference on float64 bits for the first u below
// 1 that reaches key k; ok is false when none does.
func boundary(z *Zipfian, k uint64) (bits uint64, ok bool) {
	lo, hi := uint64(0), math.Float64bits(1)-1
	if atReference(z, math.Float64frombits(hi)) < k {
		return 0, false
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if atReference(z, math.Float64frombits(mid)) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// checkBoundaries checks at on the ±64 ulps around the first draw that
// reaches each of keys, where fastAt's floor is least certain.
func checkBoundaries(t *testing.T, z *Zipfian, keys []uint64) {
	t.Helper()
	for _, k := range keys {
		b, ok := boundary(z, k)
		if !ok {
			continue
		}
		for u := b - 64; u <= min(b+64, math.Float64bits(1)-1); u++ {
			checkAt(t, z, math.Float64frombits(u))
		}
	}
}

// boundaryKeys picks keys from 2 up: the smallest, the largest, powers
// of two and their successors, and random ones. checkBoundaries skips
// a key no draw reaches.
func boundaryKeys(n uint64, rng *rand.Rand) []uint64 {
	keys := []uint64{2, n - 1}
	for k := uint64(4); k < n; k *= 2 {
		keys = append(keys, k, k+1)
	}
	for i := 0; i < 32; i++ {
		keys = append(keys, 2+uint64(rng.Int63n(int64(n-2))))
	}
	return keys
}

// TestZipfianAtExact: at's Exp/Log-free path returns the math.Pow
// inversion's key bit for bit, on random draws and around the draws
// where the key changes, for fixed and growing item spaces; it falls
// back on under 1% of draws, and θ without a near-integer exponent
// never takes it.
func TestZipfianAtExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const draws = 100_000
	var reached, fellBack int
	for _, n := range []uint64{3, 1 << 16, 1<<16 + 1, 1 << 20, 700_000, 1 << 30} {
		z := zipfianFor(n, ZipfianConstant)
		if z.powM != 100 {
			t.Fatalf("n=%d: θ=0.99 exponent %d, want 100", n, z.powM)
		}
		r, f := checkRandom(t, z, rng, draws)
		reached, fellBack = reached+r, fellBack+f
		checkBoundaries(t, z, boundaryKeys(n, rng))
	}
	t.Logf("θ=0.99: fastAt fell back on %d of %d draws", fellBack, reached)
	if fellBack == 0 || fellBack*100 >= reached {
		t.Errorf("θ=0.99: fastAt fell back on %d of %d draws, want at least one and under 1%%", fellBack, reached)
	}

	// Latest grows n one insert at a time; fastAt reads it per draw.
	l := NewLatest(1000, 5)
	for i := 0; i < 20_000; i++ {
		l.Insert()
		checkAt(t, l.z, rng.Float64())
		if i%5000 == 0 {
			checkBoundaries(t, l.z, boundaryKeys(l.N(), rng))
		}
	}

	// θ = 0.5 makes α exactly 2; θ = 0.7 makes it 3.33, with no fast path.
	for _, tc := range []struct {
		theta float64
		m     int
	}{{0.5, 2}, {0.7, 0}} {
		z := NewZipfianTheta(1<<16, tc.theta, 1)
		if z.powM != tc.m {
			t.Fatalf("θ=%v: exponent %d, want %d", tc.theta, z.powM, tc.m)
		}
		reached, fellBack := checkRandom(t, z, rng, draws)
		checkBoundaries(t, z, boundaryKeys(z.n, rng))
		if tc.m == 0 && fellBack != reached {
			t.Errorf("θ=%v: fastAt certified %d draws with no exponent", tc.theta, reached-fellBack)
		}
		if tc.m != 0 && fellBack*100 >= reached {
			t.Errorf("θ=%v: fastAt fell back on %d of %d draws", tc.theta, fellBack, reached)
		}
	}
}

// FuzzZipfianAt: for any draw, item count and skew, at returns the
// math.Pow inversion's key, at the draw and at an ulp offset (from the
// draw's low bits) from the first draw that reaches the same key.
func FuzzZipfianAt(f *testing.F) {
	for _, theta := range []float64{ZipfianConstant, 0.5, 0.7, 0.75, 0.8, 0.9, 0.999} {
		f.Add(uint64(0x3fefffffffffffff), uint64(1<<20), theta)
		f.Add(uint64(0x3fe0000000000000), uint64(3), theta)
	}
	f.Fuzz(func(t *testing.T, uBits, n uint64, theta float64) {
		if !(theta > 0 && theta < 1) {
			t.Skip()
		}
		u := math.Float64frombits(uBits % math.Float64bits(1))
		n = 3 + n%(1<<40)
		z := newZipfian(n, theta, zetaEstimate(n, theta), 1)
		check := func(u float64) {
			if got, want := z.at(u), atReference(z, u); got != want {
				t.Fatalf("n=%d θ=%v u=%v (%#x): at = %d, math.Pow reference %d",
					n, theta, u, math.Float64bits(u), got, want)
			}
		}
		check(u)
		if b, ok := boundary(z, atReference(z, u)); ok {
			check(math.Float64frombits(min(b+uBits%129-64, math.Float64bits(1)-1)))
		}
	})
}

var atSink uint64

// BenchmarkZipfianAt times one inversion at paper scale (2^20 items,
// θ = 0.99): fast is at as it runs, pow-reference the math.Pow line on
// every draw. ns/op is per draw.
func BenchmarkZipfianAt(b *testing.B) {
	z := NewZipfian(1<<20, 1)
	us := make([]float64, 1<<12)
	for i := range us {
		us[i] = z.rng.Float64()
	}
	for _, bc := range []struct {
		name string
		at   func(float64) uint64
	}{
		{"fast", z.at},
		{"pow-reference", func(u float64) uint64 { return atReference(z, u) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				atSink += bc.at(us[i&(len(us)-1)])
			}
		})
	}
}
