// Package workload implements the key-distribution generators and YCSB
// workload definitions the paper's application experiments use (§4.1: YCSB
// A–D over Zipfian / latest distributions with 1 KB values).
//
// The Zipfian generator follows Gray et al., "Quickly Generating
// Billion-Record Synthetic Databases" (SIGMOD '94) — the same algorithm
// YCSB itself uses — so hot-key skew matches the original benchmark.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"cxlsim/internal/par"
)

// Generator produces item indices in [0, n) under some distribution.
type Generator interface {
	// Next returns the next item index.
	Next() uint64
	// N returns the size of the item space.
	N() uint64
}

// Uniform draws uniformly from [0, n).
type Uniform struct {
	n   uint64
	rng *rand.Rand
}

// NewUniform returns a uniform generator over [0, n).
func NewUniform(n uint64, seed int64) *Uniform {
	if n == 0 {
		panic("workload: uniform over empty item space")
	}
	return &Uniform{n: n, rng: rand.New(rand.NewSource(seed))}
}

// Next returns a uniformly distributed index.
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// N returns the item-space size.
func (u *Uniform) N() uint64 { return u.n }

// ZipfianConstant is YCSB's default skew (theta).
const ZipfianConstant = 0.99

// Zipfian draws from [0, n) with Zipfian skew: item 0 is the most popular.
// Implements Gray's rejection-free inversion method with incremental
// support for growing n (needed by the "latest" distribution).
type Zipfian struct {
	n           uint64
	theta       float64
	alpha       float64
	zetan       float64
	zeta2theta  float64
	eta         float64
	halfTheta   float64 // math.Pow(0.5, theta), hoisted out of Next's hot path
	powM        int     // fastAt's integer exponent; 0 disables it (fastExponent)
	countForZ   uint64  // n for which zetan was computed
	rng         *rand.Rand
	allowExtend bool
}

// NewZipfian returns a Zipfian generator over [0, n) with the standard
// YCSB constant 0.99.
func NewZipfian(n uint64, seed int64) *Zipfian {
	return NewZipfianTheta(n, ZipfianConstant, seed)
}

// NewZipfianTheta returns a Zipfian generator with explicit skew theta in
// (0, 1).
func NewZipfianTheta(n uint64, theta float64, seed int64) *Zipfian {
	if n == 0 {
		panic("workload: zipfian over empty item space")
	}
	if theta <= 0 || theta >= 1 {
		panic(fmt.Sprintf("workload: zipfian theta %v out of (0,1)", theta))
	}
	return newZipfian(n, theta, zeta(n, theta), seed)
}

// newZipfian is NewZipfianTheta with the harmonic number zetan supplied,
// so tests can build generators over item spaces too large to sum.
func newZipfian(n uint64, theta, zetan float64, seed int64) *Zipfian {
	z := &Zipfian{
		n:     n,
		theta: theta,
		rng:   rand.New(rand.NewSource(seed)),
	}
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.powM = fastExponent(z.alpha)
	z.halfTheta = math.Pow(0.5, theta)
	z.zetan = zetan
	z.countForZ = n
	z.eta = z.etaVal()
	return z
}

func (z *Zipfian) etaVal() float64 {
	return (1 - math.Pow(2/float64(z.n), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
}

// zetaKey identifies one generalized harmonic number in zetaMemo.
type zetaKey struct {
	n     uint64
	theta float64
}

// zetaMemo holds zetaStatic's result per (n, theta) for the life of the
// process. cxlsim builds many generators over a handful of item counts,
// and each sum costs n math.Pow calls (~75 ms at 1<<20).
var zetaMemo sync.Map // zetaKey → float64

// zeta is zetaStatic, computed once per (n, theta) per process.
// Concurrent first calls may each compute the sum; they agree bit for bit.
func zeta(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	if v, ok := zetaMemo.Load(k); ok {
		return v.(float64)
	}
	v, _ := zetaMemo.LoadOrStore(k, zetaStatic(n, theta))
	return v.(float64)
}

// zetaStatic computes the n-th generalized harmonic number sum_{i=1..n}
// 1/i^theta in index order, the order grow continues, so a grown
// generator matches one built at the larger size bit for bit. O(n).
func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next returns a Zipfian-distributed index; 0 is the hottest item.
func (z *Zipfian) Next() uint64 { return z.at(z.rng.Float64()) }

// at inverts the distribution at the uniform draw u ∈ [0, 1): Next
// without the RNG. It reads only fixed state, so batches may call it
// from several goroutines.
func (z *Zipfian) at(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.halfTheta {
		return 1
	}
	x := z.eta*u - z.eta + 1
	if k, ok := z.fastAt(x); ok {
		return k
	}
	return uint64(float64(z.n) * math.Pow(x, z.alpha))
}

// floorSlack is the relative margin δ by which fastAt must be able to
// move its estimate either way without changing the floor.
const floorSlack = 1e-12

// fastExponent returns the integer m that fastAt may raise x to in place
// of math.Pow(x, alpha), or 0 when no m is close enough.
//
// Go's math.Pow(x, α) with α = m + e, |e| < 0.5, computes
// Exp(e·Log x) · x^m, the power by Frexp-normalized repeated squaring.
// In binary powering a square doubles its input's relative error and
// adds one rounding, a product adds its inputs' errors and one rounding,
// so x^k comes out within (k−1)·2⁻⁵³ of exact; Exp, the first product
// with it and Log (whose error is scaled by e) add under 4·2⁻⁵³. fastAt
// powers with the same bound and is used only when 1 ≥ x > 0 and
// v = n·x^m ≥ 2, so x^m > 2/n > 2⁻⁶³, no square is subnormal and
// |ln x| < 44/m; then |Exp(e·ln x) − 1| < 45·|e|/m. With both products
// by n rounded once, v and the value at truncates differ relatively by
// at most
//
//	bound = 45·|e|/m + (2m+4)·2⁻⁵³,
//
// and m is used only when bound ≤ floorSlack/10. At YCSB's θ = 0.99,
// α = 100 − 9.1e-14 and bound = 6.4e-14: ten times inside floorSlack.
func fastExponent(alpha float64) int {
	m := math.Round(alpha) // ≥ 1: alpha > 1 for theta in (0, 1)
	bound := 45*math.Abs(alpha-m)/m + (2*m+4)*0x1p-53
	if bound > floorSlack/10 {
		return 0
	}
	return int(m)
}

// fastAt is at's math.Pow line without Exp or Log. When ok, k is exactly
// uint64(float64(z.n) * math.Pow(x, z.alpha)): v is within floorSlack/10
// of that product (fastExponent), so a floor that does not move across
// v·(1 ± floorSlack) is the product's floor. Otherwise (no exponent, x
// out of (0, 1], v < 2, v past 2⁵³ or a boundary within reach) the
// caller falls back to math.Pow.
func (z *Zipfian) fastAt(x float64) (k uint64, ok bool) {
	if z.powM == 0 || !(x > 0 && x <= 1) {
		return 0, false
	}
	v := float64(z.n) * powInt(x, z.powM)
	if !(v >= 2 && v < 1<<53) {
		return 0, false
	}
	k = uint64(v * (1 - floorSlack))
	return k, k == uint64(v*(1+floorSlack))
}

// powInt returns x^m by binary powering: at most 2·log2(m) multiplies.
func powInt(x float64, m int) float64 {
	p := 1.0
	for ; m > 0; m >>= 1 {
		if m&1 == 1 {
			p *= x
		}
		x *= x
	}
	return p
}

// N returns the item-space size.
func (z *Zipfian) N() uint64 { return z.n }

// grow extends the item space to m (> n), updating zetan incrementally.
func (z *Zipfian) grow(m uint64) {
	if m <= z.n {
		return
	}
	for i := z.countForZ + 1; i <= m; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	z.countForZ = m
	z.n = m
	z.eta = z.etaVal()
}

// ScrambledZipfian spreads Zipfian popularity across the whole item space
// with a hash, matching YCSB's default request distribution: skew without
// locality in key order.
type ScrambledZipfian struct {
	z *Zipfian
	n uint64
}

// NewScrambledZipfian returns a scrambled Zipfian generator over [0, n).
func NewScrambledZipfian(n uint64, seed int64) *ScrambledZipfian {
	// YCSB draws from a larger zipfian space then hashes down; drawing
	// from n directly and hashing preserves the popularity profile.
	return &ScrambledZipfian{z: NewZipfian(n, seed), n: n}
}

// Next returns a hashed Zipfian index: same skew, no key-order locality.
func (s *ScrambledZipfian) Next() uint64 {
	return fnvHash64(s.z.Next()) % s.n
}

// fillChunk is the number of keys one Fill work item inverts: large
// enough to amortize the hand-off, small enough to balance the workers.
const fillChunk = 4096

// Fill sets keys to the next len(keys) draws and leaves the generator
// where len(keys) calls to Next would. The uniform draws stay serial on
// the generator's RNG; each is parked in its key slot as float64 bits,
// then the inversion and hash, pure functions of the draw, run over
// fixed-size chunks on up to workers goroutines (par.Workers-normalized).
// The result does not depend on workers.
func (s *ScrambledZipfian) Fill(keys []uint64, workers int) {
	for i := range keys {
		keys[i] = math.Float64bits(s.z.rng.Float64())
	}
	par.ForEach((len(keys)+fillChunk-1)/fillChunk, workers, func(c int) {
		chunk := keys[c*fillChunk : min((c+1)*fillChunk, len(keys))]
		for i, bits := range chunk {
			chunk[i] = fnvHash64(s.z.at(math.Float64frombits(bits))) % s.n
		}
	})
}

// N returns the item-space size.
func (s *ScrambledZipfian) N() uint64 { return s.n }

// fnvHash64 is the FNV-1a hash YCSB uses to scramble keys.
func fnvHash64(v uint64) uint64 {
	const (
		offset = 0xCBF29CE484222325
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// Latest draws items skewed toward the most recently inserted: index
// n-1 is hottest. Used by YCSB-D ("read latest"). Insert() grows the
// space, shifting the hot set.
type Latest struct {
	z *Zipfian
}

// NewLatest returns a latest-distribution generator over [0, n).
func NewLatest(n uint64, seed int64) *Latest {
	return &Latest{z: NewZipfian(n, seed)}
}

// Next returns an index skewed toward the newest items.
func (l *Latest) Next() uint64 {
	n := l.z.N()
	return n - 1 - l.z.Next()%n
}

// N returns the item-space size.
func (l *Latest) N() uint64 { return l.z.N() }

// Insert grows the item space by one (a new hottest item) and returns the
// new item's index.
func (l *Latest) Insert() uint64 {
	l.z.grow(l.z.N() + 1)
	return l.z.N() - 1
}
