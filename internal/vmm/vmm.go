// Package vmm is cxlsim's virtual memory manager: page-granularity
// placement of application address spaces across the machine's NUMA/CXL
// nodes, with capacity accounting, access-heat tracking, and page
// migration — the substrate under the kernel tiering policies of §2.3.
//
// Pages are simulated at 2 MiB granularity by default (the kernel's THP /
// hot-page-selection granularity class); at 4 KiB a 512 GB working set
// would need 134M page records for no additional modeling fidelity.
package vmm

import (
	"errors"
	"fmt"
	"slices"

	"cxlsim/internal/topology"
)

// DefaultPageSize is the simulation page granularity.
const DefaultPageSize = 2 << 20

// ErrNoCapacity is returned when an allocation cannot be satisfied by the
// policy's target nodes.
var ErrNoCapacity = errors.New("vmm: no capacity on target nodes")

// Page is one simulated page. Heat is tracked lazily: the raw counter
// (heat) is valid as of the decay epoch stamped in decayedAt, and reads
// through Space.Heat/Touch apply any decay epochs the page has missed.
// That makes Space.DecayHeat O(1) instead of O(pages) — the per-epoch
// full-array sweep was the dominant tiering-epoch cost at production
// working-set sizes.
type Page struct {
	Node *topology.Node

	heat      float64 // decayed access counter, valid as of decayedAt
	decayedAt uint64  // decay epochs applied to heat so far
}

// Space is one application address space: a flat array of pages.
type Space struct {
	PageSize uint64
	Pages    []Page

	// heatEpoch counts DecayHeat calls; decayFactor is the factor shared
	// by all epochs a page may still have pending (DecayHeat materializes
	// outstanding decay eagerly on the rare occasion the factor changes,
	// so a single factor always suffices).
	heatEpoch   uint64
	decayFactor float64

	// shareScratch/shareSeen accumulate per-node mass (indexed by node
	// ID) inside NodeShare/HeatShare, replacing a map operation per page
	// with a slice index. Reused across calls; epoch loops call these
	// every tick, so the scratch removes their dominant allocation
	// churn. Not safe for concurrent calls on the same Space (a Space is
	// owned by one simulated application).
	shareScratch []float64
	shareSeen    []bool
}

// NewSpace returns an empty space with the given page size (0 ⇒ default).
func NewSpace(pageSize uint64) *Space {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	return &Space{PageSize: pageSize}
}

// Bytes reports the space's total size.
func (s *Space) Bytes() uint64 { return uint64(len(s.Pages)) * s.PageSize }

// PageFor maps a byte offset to a page index.
func (s *Space) PageFor(offset uint64) int {
	idx := int(offset / s.PageSize)
	if idx < 0 || idx >= len(s.Pages) {
		panic(fmt.Sprintf("vmm: offset %d outside space of %d pages", offset, len(s.Pages)))
	}
	return idx
}

// Touch records accesses to a page: weight is the number of accesses
// (reads+writes) attributed. Pending lazy decay is applied before the
// weight lands, so interleaved Touch/DecayHeat sequences produce
// bit-identical heat to an eager per-epoch sweep.
func (s *Space) Touch(page int, weight float64) {
	p := &s.Pages[page]
	s.syncHeat(p)
	p.heat += weight
}

// TouchCounts applies counts[i] touches of weight to page i, in page
// order, and zeroes counts; len(counts) must equal len(s.Pages). Within
// one decay epoch touches to different pages commute and each page's own
// additions keep their order, so this is bit-identical to the same
// touches made one by one with Touch — at one decay catch-up per page and
// a sequential walk of the page array instead of a random one.
func (s *Space) TouchCounts(counts []uint32, weight float64) {
	for i, n := range counts[:len(s.Pages)] {
		if n == 0 {
			continue
		}
		p := &s.Pages[i]
		s.syncHeat(p)
		for ; n > 0; n-- {
			p.heat += weight
		}
		counts[i] = 0
	}
}

// Heat reports a page's decayed access counter (accesses/epoch scale),
// applying any decay epochs the page has missed. Like Touch, it is a
// mutating read (it advances the page's decay stamp) and is not safe for
// concurrent calls on the same Space.
func (s *Space) Heat(page int) float64 {
	p := &s.Pages[page]
	s.syncHeat(p)
	return p.heat
}

// syncHeat applies the decay epochs p has missed. The factor is applied
// by repeated multiplication — not math.Pow — so the result is
// bit-identical to the eager per-epoch sweep it replaces.
func (s *Space) syncHeat(p *Page) {
	d := s.heatEpoch - p.decayedAt
	if d == 0 {
		return
	}
	p.decayedAt = s.heatEpoch
	if p.heat == 0 {
		return // 0 × factor is 0 for any epoch count
	}
	f := s.decayFactor
	for ; d > 0; d-- {
		p.heat *= f
		if p.heat == 0 {
			break // underflowed (or factor 0): stays exactly zero
		}
	}
}

// DecayHeat ages all heat counters by factor (0..1) — called once per
// epoch so heat approximates an exponentially-weighted access rate.
// Decay is lazy: this bumps a per-space epoch counter in O(1), and pages
// apply factor^Δepochs when next read through Touch/Heat. Calling with a
// different factor than the previous epoch first materializes all
// outstanding decay (an O(pages) sweep), so mixed-factor schedules stay
// exact; steady epoch loops use one factor and never sweep.
func (s *Space) DecayHeat(factor float64) {
	if factor < 0 || factor > 1 {
		panic("vmm: decay factor outside [0,1]")
	}
	if factor != s.decayFactor && s.heatEpoch > 0 {
		s.FlushHeat()
	}
	s.decayFactor = factor
	s.heatEpoch++
}

// FlushHeat materializes all pending lazy decay so every page's raw
// counter is current. Epoch loops never need this; it exists for factor
// changes and for tests that compare against an eager sweep.
func (s *Space) FlushHeat() {
	for i := range s.Pages {
		s.syncHeat(&s.Pages[i])
	}
}

// Placement is a compact copy of a space's page placement and heat: a
// node ID and a fully decayed heat value per page, plus the space's decay
// epoch and factor. It holds no node pointers, so one Placement loads
// into a space on any machine with the same node IDs.
type Placement struct {
	nodes       []int32
	heat        []float64
	heatEpoch   uint64
	decayFactor float64
}

// SavePlacement snapshots the space. It flushes pending lazy decay first:
// catch-up multiplies once per missed epoch however the epochs are split,
// so flushing early changes no bit, and every page of the snapshot is
// current as of the space's decay epoch.
func (s *Space) SavePlacement() *Placement {
	s.FlushHeat()
	pl := &Placement{
		nodes:       make([]int32, len(s.Pages)),
		heat:        make([]float64, len(s.Pages)),
		heatEpoch:   s.heatEpoch,
		decayFactor: s.decayFactor,
	}
	for i := range s.Pages {
		pl.nodes[i] = int32(s.Pages[i].Node.ID)
		pl.heat[i] = s.Pages[i].heat
	}
	return pl
}

// LoadPlacement overwrites the space's placement and heat with pl,
// resolving node IDs on m. The space must already hold as many pages as
// pl; capacity accounting is the allocator's (see Allocator.SetUsage).
func (s *Space) LoadPlacement(pl *Placement, m *topology.Machine) {
	if len(pl.nodes) != len(s.Pages) {
		panic(fmt.Sprintf("vmm: loading a %d-page placement into a %d-page space", len(pl.nodes), len(s.Pages)))
	}
	s.heatEpoch, s.decayFactor = pl.heatEpoch, pl.decayFactor
	for i := range s.Pages {
		s.Pages[i] = Page{Node: m.Node(int(pl.nodes[i])), heat: pl.heat[i], decayedAt: pl.heatEpoch}
	}
}

// accumulateShares sums mass per node over the reused scratch slices and
// returns the distinct nodes in first-encountered page order. Callers
// read s.shareScratch[n.ID] for each returned node and must finish with
// resetShares(nodes) so the scratch is clean for the next call.
func (s *Space) accumulateShares(mass func(p *Page) float64) (nodes []*topology.Node) {
	for i := range s.Pages {
		n := s.Pages[i].Node
		for n.ID >= len(s.shareScratch) {
			s.shareScratch = append(s.shareScratch, 0)
			s.shareSeen = append(s.shareSeen, false)
		}
		if !s.shareSeen[n.ID] {
			s.shareSeen[n.ID] = true
			nodes = append(nodes, n)
		}
		s.shareScratch[n.ID] += mass(&s.Pages[i])
	}
	return nodes
}

func (s *Space) resetShares(nodes []*topology.Node) {
	for _, n := range nodes {
		s.shareScratch[n.ID] = 0
		s.shareSeen[n.ID] = false
	}
}

// NodeShare reports the fraction of pages on each node (capacity split).
// The returned map is freshly allocated (callers may hold it across
// epochs); the per-page accumulation runs over a reused scratch slice.
func (s *Space) NodeShare() map[*topology.Node]float64 {
	out := map[*topology.Node]float64{}
	if len(s.Pages) == 0 {
		return out
	}
	nodes := s.accumulateShares(func(*Page) float64 { return 1 })
	inv := 1 / float64(len(s.Pages))
	for _, n := range nodes {
		out[n] = s.shareScratch[n.ID] * inv
	}
	s.resetShares(nodes)
	return out
}

// HeatShare reports the fraction of recent accesses (by heat mass)
// served from each node — the access split that determines the app's
// effective memory placement. Like NodeShare, the returned map is fresh
// but the accumulation reuses the space's scratch.
func (s *Space) HeatShare() map[*topology.Node]float64 {
	nodes := s.accumulateShares(func(p *Page) float64 {
		s.syncHeat(p)
		return p.heat
	})
	total := 0.0
	for _, n := range nodes {
		total += s.shareScratch[n.ID]
	}
	if total == 0 {
		s.resetShares(nodes)
		return s.NodeShare()
	}
	out := make(map[*topology.Node]float64, len(nodes))
	for _, n := range nodes {
		out[n] = s.shareScratch[n.ID] / total
	}
	s.resetShares(nodes)
	return out
}

// Allocator tracks node capacity and performs allocation and migration.
type Allocator struct {
	// used is bytes allocated per node, indexed by node ID: placement
	// and Alloc touch it for every page of a space (262,144 for a 512 GB
	// working set), so it is a slice, not a map.
	used []uint64
}

// NewAllocator returns an allocator over the machine's nodes.
func NewAllocator(m *topology.Machine) *Allocator {
	return &Allocator{used: make([]uint64, len(m.Nodes))}
}

// Used reports bytes allocated on a node.
func (a *Allocator) Used(n *topology.Node) uint64 { return a.used[n.ID] }

// Usage returns a copy of the bytes allocated per node, indexed by node ID.
func (a *Allocator) Usage() []uint64 { return slices.Clone(a.used) }

// SetUsage replaces the per-node accounting with a copy of used (as
// returned by Usage, possibly from an allocator over another machine with
// the same node IDs).
func (a *Allocator) SetUsage(used []uint64) { a.used = slices.Clone(used) }

// Free reports remaining bytes on a node.
func (a *Allocator) Free(n *topology.Node) uint64 {
	u := a.used[n.ID]
	if u >= n.Capacity {
		return 0
	}
	return n.Capacity - u
}

// Alloc grows the space by size bytes placed according to the policy.
// On ErrNoCapacity the space is left unchanged.
func (a *Allocator) Alloc(s *Space, size uint64, pol Policy) error {
	pages := int((size + s.PageSize - 1) / s.PageSize)
	placed, err := pol.place(a, s.PageSize, pages)
	if err != nil {
		return err
	}
	s.Pages = slices.Grow(s.Pages, len(placed))
	for _, n := range placed {
		a.used[n.ID] += s.PageSize
		// New pages are born current: decay epochs before allocation do
		// not apply to them.
		s.Pages = append(s.Pages, Page{Node: n, decayedAt: s.heatEpoch})
	}
	return nil
}

// FreeSpace releases every page of the space back to its nodes and
// truncates the space.
func (a *Allocator) FreeSpace(s *Space) {
	for i := range s.Pages {
		a.release(s.Pages[i].Node, s.PageSize)
	}
	s.Pages = s.Pages[:0]
}

func (a *Allocator) release(n *topology.Node, bytes uint64) {
	if a.used[n.ID] < bytes {
		panic("vmm: releasing more than allocated")
	}
	a.used[n.ID] -= bytes
}

// Migrate moves one page of the space to the destination node, updating
// capacity accounting. Returns ErrNoCapacity when dst is full.
func (a *Allocator) Migrate(s *Space, page int, dst *topology.Node) error {
	p := &s.Pages[page]
	if p.Node == dst {
		return nil
	}
	if a.Free(dst) < uint64(s.PageSize) {
		return ErrNoCapacity
	}
	a.release(p.Node, s.PageSize)
	a.used[dst.ID] += s.PageSize
	p.Node = dst
	return nil
}

// Policy decides where new pages land.
type Policy interface {
	place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error)
}

// Bind places every page on the listed nodes, filling them in order —
// the numactl --membind analogue (§4.3 binds KeyDB wholly to MMEM or CXL).
type Bind struct {
	Nodes []*topology.Node
}

func (b Bind) place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error) {
	return fillFirst(a, b.Nodes, pageSize, pages)
}

// Preferred fills Primary first, then overflows to Fallback nodes — the
// default kernel first-touch-with-fallback behaviour.
type Preferred struct {
	Primary  []*topology.Node
	Fallback []*topology.Node
}

func (p Preferred) place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error) {
	return fillFirst(a, append(append([]*topology.Node{}, p.Primary...), p.Fallback...), pageSize, pages)
}

// InterleaveNM is the tiered-memory N:M interleave policy (§2.3): of
// every N+M pages, N go to the Top nodes (round-robin) and M to the Low
// nodes. A 4:1 ratio directs 80% of pages (and, for uniformly accessed
// data, 80% of traffic) to the top tier.
type InterleaveNM struct {
	Top, Low []*topology.Node
	N, M     int
}

func (il InterleaveNM) place(a *Allocator, pageSize uint64, pages int) ([]*topology.Node, error) {
	if il.N < 0 || il.M < 0 || il.N+il.M == 0 {
		return nil, fmt.Errorf("vmm: invalid interleave ratio %d:%d", il.N, il.M)
	}
	if len(il.Top) == 0 && il.N > 0 || len(il.Low) == 0 && il.M > 0 {
		return nil, errors.New("vmm: interleave tier with no nodes")
	}
	out := make([]*topology.Node, 0, pages)
	// Tentative placement must be atomic: track hypothetical usage.
	tentative := make([]uint64, len(a.used))
	free := func(n *topology.Node) uint64 {
		f := a.Free(n)
		t := tentative[n.ID]
		if t >= f {
			return 0
		}
		return f - t
	}
	pick := func(tier []*topology.Node, rr int) (*topology.Node, bool) {
		for k := 0; k < len(tier); k++ {
			n := tier[(rr+k)%len(tier)]
			if free(n) >= pageSize {
				return n, true
			}
		}
		return nil, false
	}
	topRR, lowRR := 0, 0
	cycle := il.N + il.M
	for i := 0; i < pages; i++ {
		var n *topology.Node
		var ok bool
		if i%cycle < il.N {
			n, ok = pick(il.Top, topRR)
			topRR++
		} else {
			n, ok = pick(il.Low, lowRR)
			lowRR++
		}
		if !ok {
			return nil, ErrNoCapacity
		}
		tentative[n.ID] += pageSize
		out = append(out, n)
	}
	return out, nil
}

// fillFirst places pages on nodes in order, moving on when each fills.
func fillFirst(a *Allocator, nodes []*topology.Node, pageSize uint64, pages int) ([]*topology.Node, error) {
	if len(nodes) == 0 {
		return nil, errors.New("vmm: policy with no nodes")
	}
	out := make([]*topology.Node, 0, pages)
	tentative := make([]uint64, len(a.used))
	ni := 0
	for i := 0; i < pages; i++ {
		for ni < len(nodes) {
			n := nodes[ni]
			if a.Free(n)-min64(tentative[n.ID], a.Free(n)) >= pageSize {
				tentative[n.ID] += pageSize
				out = append(out, n)
				break
			}
			ni++
		}
		if len(out) != i+1 {
			return nil, ErrNoCapacity
		}
	}
	return out, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
