// Package tiering implements the kernel memory-tiering policy the paper
// evaluates (§2.3) over vmm address spaces: HotPromote, the "Tiered
// memory: hot page selection" kernel patch — heat-threshold promotion
// under a Promotion Rate Limit, with the patch's automatic threshold
// adjustment. It includes the failure mode the paper diagnoses in
// §4.2.2: on low-locality workloads the auto-threshold chases transient
// heat and the daemon thrashes. Static placements (interleave, bind) run
// with no daemon at all.
//
// Daemons return per-tick migration reports; callers charge the reported
// bytes as memory traffic so migration itself contends with the
// application (that contention is what makes promotion-under-saturation
// harmful, §5.3).
package tiering

import (
	"math"

	"cxlsim/internal/sim"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
)

// Report summarizes one daemon tick.
type Report struct {
	PromotedPages int
	DemotedPages  int
	PromotedBytes uint64
	DemotedBytes  uint64
}

// TotalBytes is all migration traffic generated by the tick.
func (r Report) TotalBytes() uint64 { return r.PromotedBytes + r.DemotedBytes }

// Daemon is a page-placement policy that runs once per epoch.
type Daemon interface {
	Name() string
	// Tick inspects the space and performs migrations via the allocator.
	Tick(now sim.Time, space *vmm.Space, alloc *vmm.Allocator) Report
	// SetHealth installs the health source consulted from the next tick
	// on; run harnesses use it to wire a fault injector into an
	// already-built daemon.
	SetHealth(h Health)
	// CurrentThreshold reports the promotion threshold in effect (after
	// any auto-adjustment); observability layers export it as a gauge so
	// the §4.2.2 threshold-chasing failure mode is visible in a timeline.
	CurrentThreshold() float64
}

// Health reports whether a node is currently degraded (its backing
// device has an active fault). Daemons consult it to avoid placing pages
// on failing devices and to evacuate pages already there. Implemented by
// fault.Injector; a nil Health means every node is healthy.
type Health interface {
	Degraded(n *topology.Node) bool
}

// Tiers names the fast (promotion-target) and slow (demotion-target)
// node sets a daemon operates between.
type Tiers struct {
	Fast []*topology.Node // e.g. local DRAM
	Slow []*topology.Node // e.g. CXL expanders

	// Health, when non-nil, marks nodes to avoid: placement skips
	// degraded nodes and HotPromote evacuates pages stranded on them.
	Health Health
}

func (t Tiers) degraded(n *topology.Node) bool {
	return t.Health != nil && t.Health.Degraded(n)
}

// DegradedCount reports how many of the tier nodes are currently
// degraded according to the health source (zero with no source).
// Observability layers sample it per epoch so windowed tiering health
// shows when and how much of the fabric a fault schedule takes out.
func (t Tiers) DegradedCount() int {
	if t.Health == nil {
		return 0
	}
	n := 0
	for _, nd := range t.Fast {
		if t.Health.Degraded(nd) {
			n++
		}
	}
	for _, nd := range t.Slow {
		if t.Health.Degraded(nd) {
			n++
		}
	}
	return n
}

// Tier classes of a node, as Tick looks them up.
const (
	untiered uint8 = iota
	fastTier
	slowTier
)

// classify fills dst with each tier node's class, indexed by node ID, and
// returns it. A node listed in both tiers is slow.
func (t Tiers) classify(dst []uint8) []uint8 {
	dst = dst[:0]
	mark := func(nodes []*topology.Node, c uint8) {
		for _, n := range nodes {
			for n.ID >= len(dst) {
				dst = append(dst, untiered)
			}
			dst[n.ID] = c
		}
	}
	mark(t.Fast, fastTier)
	mark(t.Slow, slowTier)
	return dst
}

// pickDst returns the first healthy node in the list with room for one
// page. Degraded nodes are never chosen as migration destinations — this
// is the alternate-tier fallback: when the preferred CXL target is
// degraded, demotions land on the next node in the list (or nowhere, in
// which case the migration is skipped this tick).
func (t Tiers) pickDst(nodes []*topology.Node, alloc *vmm.Allocator, pageSize uint64) *topology.Node {
	for _, n := range nodes {
		if t.degraded(n) {
			continue
		}
		if alloc.Free(n) >= pageSize {
			return n
		}
	}
	return nil
}

// DefaultHotThreshold is the minimum heat for promotion eligibility: the
// patch promotes pages whose access frequency clears a hot threshold, not
// pages seen once — a page must look re-accessed across scan windows. It
// is also the floor of the auto-adjusted threshold.
const DefaultHotThreshold = 3

// HotPromote is the hot-page-selection patch model.
type HotPromote struct {
	Tiers Tiers
	// RateLimitBytes is the per-tick promotion budget — the analogue of
	// kernel.numa_balancing_promote_rate_limit_MBps scaled by the epoch
	// length. Demotions needed to make room share the same budget, as in
	// the patch.
	RateLimitBytes uint64
	// AutoThreshold enables the patch's dynamic hot-threshold
	// adjustment. When false, Threshold stays fixed.
	AutoThreshold bool
	// Threshold is the heat (accesses/epoch) above which a slow-tier
	// page is promotion-eligible. Zero defaults to DefaultHotThreshold.
	Threshold float64

	// cands/victims are per-tick selection scratch and class the per-tick
	// tier table (node ID → tier class), reused across ticks so
	// steady-state ticking does not allocate.
	cands, victims topk
	class          []uint8
}

// Name implements Daemon.
func (h *HotPromote) Name() string { return "hot-promote" }

// SetHealth implements Daemon.
func (h *HotPromote) SetHealth(hl Health) { h.Tiers.Health = hl }

// CurrentThreshold implements Daemon.
func (h *HotPromote) CurrentThreshold() float64 {
	if h.Threshold <= 0 {
		return DefaultHotThreshold
	}
	return h.Threshold
}

// Tick implements Daemon.
func (h *HotPromote) Tick(now sim.Time, space *vmm.Space, alloc *vmm.Allocator) Report {
	if h.Threshold <= 0 {
		h.Threshold = DefaultHotThreshold
	}
	var rep Report
	ps := space.PageSize

	// Promotion candidates: hot slow-tier pages, hottest first. Demotion
	// victims: fast-tier pages, coldest first.
	//
	// Only the top/bottom K pages can ever migrate in one tick: every
	// successful promotion or demotion spends at least one page of the
	// shared rate-limit budget, so K = budget/pageSize bounds both sides.
	// Selection therefore runs over bounded heaps (O(pages·log K) and no
	// allocation in steady state) instead of fully sorting every
	// candidate and victim each tick. Ordering is the strict total order
	// (heat, then page index), so the selected set and its order are
	// identical to a full sort under the same tie-break.
	k := 0
	if ps > 0 {
		k = int(h.RateLimitBytes / ps)
	}
	h.cands.reset(k)
	h.victims.reset(k)
	h.class = h.Tiers.classify(h.class)
	for i := range space.Pages {
		p := &space.Pages[i]
		class := untiered
		if p.Node.ID < len(h.class) {
			class = h.class[p.Node.ID]
		}
		switch class {
		case slowTier:
			if h.Tiers.degraded(p.Node) {
				// Evacuation: pages stranded on a degraded device jump the
				// heat threshold and outrank every ordinary candidate
				// (infinite heat, ties broken by page index so selection
				// stays deterministic). They still spend the same migration
				// budget — evacuating a dead node is not free.
				h.cands.offer(cand{i, math.Inf(1)}, hotterFirst)
			} else if heat := space.Heat(i); heat >= h.Threshold {
				h.cands.offer(cand{i, heat}, hotterFirst)
			}
		case fastTier:
			h.victims.offer(cand{i, space.Heat(i)}, colderFirst)
		}
	}
	cands := h.cands.sortBestFirst(hotterFirst)
	victims := h.victims.sortBestFirst(colderFirst)

	budget := h.RateLimitBytes
	vi := 0
	for _, c := range cands {
		if budget < ps {
			break
		}
		dst := h.Tiers.pickDst(h.Tiers.Fast, alloc, ps)
		if dst == nil {
			// Fast tier full: demote the coldest fast page to make
			// room, spending budget on the demotion too — but only if
			// the exchange is profitable. Candidates cool and victims
			// warm monotonically along their sort orders, so the first
			// unprofitable pair ends the tick; this is what lets
			// promotion *quiesce* once placement has converged, instead
			// of burning the rate limit on heat-neutral swaps.
			if vi >= len(victims) || budget < 2*ps || victims[vi].heat >= c.heat {
				break
			}
			ddst := h.Tiers.pickDst(h.Tiers.Slow, alloc, ps)
			if ddst == nil {
				break
			}
			if err := alloc.Migrate(space, victims[vi].idx, ddst); err != nil {
				break
			}
			vi++
			rep.DemotedPages++
			rep.DemotedBytes += ps
			budget -= ps
			dst = h.Tiers.pickDst(h.Tiers.Fast, alloc, ps)
			if dst == nil {
				break
			}
		}
		if err := alloc.Migrate(space, c.idx, dst); err != nil {
			continue
		}
		rep.PromotedPages++
		rep.PromotedBytes += ps
		budget -= ps
	}

	if h.AutoThreshold {
		// The patch raises the threshold when promotion saturates its
		// rate limit and relaxes it when promotion falls well under —
		// balancing promotion speed against migration cost. On
		// low-locality workloads this chases transient heat (§4.2.2).
		switch {
		case rep.TotalBytes() >= h.RateLimitBytes-ps:
			h.Threshold *= 1.3
		case rep.TotalBytes() < h.RateLimitBytes/2:
			h.Threshold /= 1.3
			if h.Threshold < DefaultHotThreshold {
				h.Threshold = DefaultHotThreshold
			}
		}
	}
	return rep
}
