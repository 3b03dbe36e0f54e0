package vmm

import (
	"math"
	"math/rand"
	"testing"

	"cxlsim/internal/topology"
)

// eagerSpace is the reference heat model the lazy implementation
// replaced: a plain per-page counter array with an O(pages) multiply
// sweep on every decay epoch.
type eagerSpace struct {
	heat []float64
}

func (e *eagerSpace) touch(page int, weight float64) { e.heat[page] += weight }

func (e *eagerSpace) decay(factor float64) {
	for i := range e.heat {
		e.heat[i] *= factor
	}
}

// TestLazyDecayMatchesEagerSweep drives a lazy Space and the eager
// reference through the same randomized interleaving of touches and
// decay epochs — including factor changes, which force the lazy path to
// materialize outstanding decay — and checks every page's heat agrees
// within 1e-9 at every decay boundary and at the end.
func TestLazyDecayMatchesEagerSweep(t *testing.T) {
	const pages = 256
	rng := rand.New(rand.NewSource(7))

	s := NewSpace(0)
	s.Pages = make([]Page, pages)
	ref := &eagerSpace{heat: make([]float64, pages)}

	factors := []float64{0.5, 0.5, 0.5, 0.9, 0.9, 0.25, 1, 0, 0.5}
	compare := func(step int) {
		t.Helper()
		for i := 0; i < pages; i++ {
			got, want := s.Heat(i), ref.heat[i]
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d page %d: lazy heat %g, eager heat %g", step, i, got, want)
			}
		}
	}

	step := 0
	for _, f := range factors {
		// A burst of touches on a random subset: many pages skip whole
		// decay epochs, accumulating pending lazy decay.
		for j := 0; j < pages/4; j++ {
			pg := rng.Intn(pages)
			w := float64(1 + rng.Intn(8))
			s.Touch(pg, w)
			ref.touch(pg, w)
			step++
		}
		s.DecayHeat(f)
		ref.decay(f)
		step++
		// Read a few pages between epochs (Heat is a mutating read that
		// advances the decay stamp — it must not double-apply decay).
		for j := 0; j < 8; j++ {
			pg := rng.Intn(pages)
			if math.Abs(s.Heat(pg)-ref.heat[pg]) > 1e-9 {
				t.Fatalf("step %d page %d: mid-epoch heat diverged", step, pg)
			}
		}
		compare(step)
	}

	// Let many epochs pile up with no reads at all, then compare: the
	// factor^Δepochs catch-up must match Δ eager sweeps.
	for k := 0; k < 20; k++ {
		s.DecayHeat(0.5)
		ref.decay(0.5)
	}
	compare(step + 20)

	// FlushHeat materializes everything; a second compare must still hold.
	s.FlushHeat()
	compare(step + 21)
}

// TestLazyDecayBitIdenticalSingleFactor: with one factor throughout (the
// steady epoch-loop case) the lazy catch-up is repeated multiplication —
// the same float ops in the same order as the eager sweep — so the match
// is exact, not just within tolerance.
func TestLazyDecayBitIdenticalSingleFactor(t *testing.T) {
	const pages = 64
	rng := rand.New(rand.NewSource(11))

	s := NewSpace(0)
	s.Pages = make([]Page, pages)
	ref := &eagerSpace{heat: make([]float64, pages)}

	for epoch := 0; epoch < 50; epoch++ {
		for j := 0; j < 16; j++ {
			pg := rng.Intn(pages)
			w := rng.Float64() * 10
			s.Touch(pg, w)
			ref.touch(pg, w)
		}
		s.DecayHeat(0.5)
		ref.decay(0.5)
	}
	for i := 0; i < pages; i++ {
		if got, want := s.Heat(i), ref.heat[i]; got != want {
			t.Fatalf("page %d: lazy heat %x, eager heat %x — expected bit-identical", i, got, want)
		}
	}
}

// TestLateAllocatedPagesSkipPriorEpochs: pages allocated after decay
// epochs have passed must not have those epochs applied retroactively.
func TestLateAllocatedPagesSkipPriorEpochs(t *testing.T) {
	m := testMachine()
	a := NewAllocator(m)
	s := NewSpace(0)
	if err := a.Alloc(s, 4*s.PageSize, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	s.Touch(0, 8)
	s.DecayHeat(0.5)
	s.DecayHeat(0.5)

	if err := a.Alloc(s, s.PageSize, Bind{Nodes: []*topology.Node{m.DRAMNodes(0)[0]}}); err != nil {
		t.Fatal(err)
	}
	late := len(s.Pages) - 1
	s.Touch(late, 4)
	if got := s.Heat(late); got != 4 {
		t.Fatalf("late page heat = %g, want 4 (prior epochs must not apply)", got)
	}
	if got := s.Heat(0); got != 2 {
		t.Fatalf("old page heat = %g, want 2", got)
	}
}

// TestTouchCountsMatchesTouch: applying an epoch's per-page counts in
// page order gives bit-identical heat to touching draw by draw.
func TestTouchCountsMatchesTouch(t *testing.T) {
	const pages = 128
	rng := rand.New(rand.NewSource(5))
	one, batched := NewSpace(0), NewSpace(0)
	one.Pages, batched.Pages = make([]Page, pages), make([]Page, pages)
	counts := make([]uint32, pages)
	for epoch := 0; epoch < 40; epoch++ {
		w := 1 + rng.Float64()*50
		for j := 0; j < 300; j++ {
			pg := rng.Intn(pages)
			one.Touch(pg, w)
			counts[pg]++
		}
		batched.TouchCounts(counts, w)
		one.DecayHeat(0.5)
		batched.DecayHeat(0.5)
	}
	for i := 0; i < pages; i++ {
		if got, want := batched.Heat(i), one.Heat(i); got != want {
			t.Fatalf("page %d: batched heat %x, per-touch heat %x", i, got, want)
		}
		if counts[i] != 0 {
			t.Fatalf("TouchCounts left count %d on page %d", counts[i], i)
		}
	}
}

// TestPlacementRoundTrip: a placement saved with pending lazy decay and
// loaded into a fresh space on another machine reads the same heat and
// nodes on every page, and stays bit-identical to the source under any
// further Touch/DecayHeat sequence.
func TestPlacementRoundTrip(t *testing.T) {
	m1, m2 := testMachine(), testMachine()
	a1, a2 := NewAllocator(m1), NewAllocator(m2)
	src, dst := NewSpace(0), NewSpace(0)
	il := func(m *topology.Machine) Policy {
		return InterleaveNM{Top: m.DRAMNodes(0), Low: m.CXLNodes(), N: 1, M: 1}
	}
	if err := a1.Alloc(src, 64*src.PageSize, il(m1)); err != nil {
		t.Fatal(err)
	}
	if err := a2.Alloc(dst, 64*dst.PageSize, il(m2)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	churn := func(epochs int, spaces ...*Space) {
		for e := 0; e < epochs; e++ {
			for j := 0; j < 16; j++ {
				pg, w := rng.Intn(64), rng.Float64()*10
				for _, s := range spaces {
					s.Touch(pg, w)
				}
			}
			for _, s := range spaces {
				s.DecayHeat(0.5)
			}
		}
	}
	churn(30, src)
	// Move a page so the snapshot carries more than the initial layout.
	if err := a1.Migrate(src, 1, m1.DRAMNodes(0)[0]); err != nil {
		t.Fatal(err)
	}
	dst.LoadPlacement(src.SavePlacement())
	a2.SetUsage(a1.Usage())

	compare := func(stage string) {
		t.Helper()
		for i := range src.Pages {
			if got, want := dst.Heat(i), src.Heat(i); got != want {
				t.Fatalf("%s: page %d heat %x, source %x", stage, i, got, want)
			}
			if dst.Pages[i].NodeID != src.Pages[i].NodeID || m2.Node(int(dst.Pages[i].NodeID)).Name != m1.Node(int(src.Pages[i].NodeID)).Name {
				t.Fatalf("%s: page %d on node %d, source on %d", stage, i, dst.Pages[i].NodeID, src.Pages[i].NodeID)
			}
		}
		for _, n := range m1.Nodes {
			if a2.used[n.ID] != a1.used[n.ID] {
				t.Fatalf("%s: node %d usage %d, source %d", stage, n.ID, a2.used[n.ID], a1.used[n.ID])
			}
		}
	}
	compare("after load")
	churn(25, src, dst)
	compare("after further epochs")
}

// TestLazyDecayExactAcrossStampWrap starts the decay epoch just below
// each of the first two sweep points, where the pages' 32-bit stamps
// reach 2^31 and wrap at 2^32, and drives a lazy Space and the eager
// reference through the same touches, batched touches, decay epochs and
// one factor change across the boundary. Pages left untouched carry
// their pending decay over it. Every page must match bit for bit.
func TestLazyDecayExactAcrossStampWrap(t *testing.T) {
	const pages = 96
	for _, start := range []uint64{flushEvery - 5, 2*flushEvery - 5} {
		rng := rand.New(rand.NewSource(int64(start)))
		s := NewSpace(0)
		s.heatEpoch, s.decayFactor = start, 0.5
		s.Pages = make([]Page, pages)
		for i := range s.Pages {
			s.Pages[i].decayedAt = uint32(start)
		}
		ref := &eagerSpace{heat: make([]float64, pages)}
		counts := make([]uint32, pages)
		for epoch := 0; epoch < 12; epoch++ {
			// Only the first half of the pages is ever touched after the
			// first epoch; the rest keep lagging across the boundary.
			span := pages
			if epoch > 0 {
				span = pages / 2
			}
			for j := 0; j < 40; j++ {
				pg, w := rng.Intn(span), 1+rng.Float64()*9
				if j%2 == 0 {
					s.Touch(pg, w)
					ref.touch(pg, w)
					continue
				}
				counts[pg] += 2
				ref.touch(pg, w)
				ref.touch(pg, w)
				s.TouchCounts(counts, w)
			}
			f := 0.5
			if epoch == 7 {
				f = 0.75
			}
			s.DecayHeat(f)
			ref.decay(f)
			if pg := rng.Intn(span); s.Heat(pg) != ref.heat[pg] {
				t.Fatalf("start %d epoch %d page %d: lazy heat %x, eager %x", start, epoch, pg, s.Heat(pg), ref.heat[pg])
			}
		}
		for i := 0; i < pages; i++ {
			if got, want := s.Heat(i), ref.heat[i]; got != want {
				t.Fatalf("start %d page %d: lazy heat %x, eager heat %x", start, i, got, want)
			}
		}
	}
}

// TestLazyDecayLongestLag: a page synced by one sweep and not read
// again until the next lags flushEvery epochs, the most any page can;
// left unread over two more sweeps it falls past 2^32 epochs behind its
// last read. Every sweep and the final read must apply all the missed
// epochs although the page's stamp keeps only 32 bits. The test jumps
// the epoch counter from just after one sweep point to the next;
// DecayHeat calls in between only count, so skipping them changes
// nothing. At factor 0.5 the page's heat must reach zero; a stamp that
// had wrapped would leave some of it.
func TestLazyDecayLongestLag(t *testing.T) {
	s := NewSpace(0)
	s.heatEpoch, s.decayFactor = flushEvery-2, 0.5
	s.Pages = []Page{{heat: 8, decayedAt: uint32(s.heatEpoch)}}
	s.DecayHeat(0.5)
	s.DecayHeat(0.5) // sweeps at flushEvery-1: heat 2, stamped there
	for _, sweep := range []uint64{2*flushEvery - 1, 3*flushEvery - 1} {
		s.heatEpoch = sweep
		s.DecayHeat(0.5) // the page lags flushEvery epochs here
	}
	s.DecayHeat(0.5)
	if got := s.Heat(0); got != 0 {
		t.Fatalf("page heat %g after %d epochs at 0.5, want 0", got, 2*uint64(flushEvery)+2)
	}
	s.Touch(0, 8)
	s.DecayHeat(0.5)
	if got := s.Heat(0); got != 4 {
		t.Fatalf("page heat %g one epoch after a touch of 8, want 4", got)
	}
}
