// Package kvstore models the paper's in-memory key-value store experiments
// (§4.1, §4.3): a KeyDB-like sharded store whose value heap lives in a vmm
// address space placed by one of the Table-1 configurations, with an
// optional KeyDB-FLASH-style SSD backend (RocksDB analogue) for data
// spilled past maxmemory.
//
// Scaling: the paper's 512 GB working set is 512 M × 1 KB records — too
// many to track individually. The store simulates SimKeys representative
// keys, each standing for BytesPerKey = WorkingSet/SimKeys bytes of real
// data; page placement, cache capacity, and bandwidth are all accounted
// at real scale while per-key state (CLOCK bits, residency) stays
// tractable.
//
// Key→page mapping preserves insertion-order locality (YCSB loads keys in
// order; KeyDB's allocator packs values roughly in insertion order), so
// Zipfian-hot keys cluster on hot pages — the property hot-page promotion
// exploits in §4.1.2.
package kvstore

import (
	"fmt"
	"math"
	"math/rand"

	"cxlsim/internal/lsm"
	"cxlsim/internal/memsim"
	"cxlsim/internal/sim"
	"cxlsim/internal/topology"
	"cxlsim/internal/vmm"
	"cxlsim/internal/workload"
)

// Cost-model constants for one KeyDB op (calibrated in EXPERIMENTS.md).
const (
	// softwareNs is the CPU-side cost of one op: epoll, RESP parsing,
	// dict lookup instructions, reply construction.
	softwareNs = 5000
	// streamMLP is the memory-level parallelism of the value copy.
	streamMLP = 8

	// Flash (RocksDB) path costs when a key misses memory.
	flashReadSoftwareNs  = 20000 // RocksDB Get: block index, decompression off
	flashWriteSoftwareNs = 6000  // WAL append + memtable insert, amortized compaction

	// flashCacheOverhead is the fraction of maxmemory consumed by the
	// Flash engine itself (RocksDB block cache, memtables, indexes)
	// rather than resident values, shrinking the effective key cache.
	flashCacheOverhead = 0.25

	// serviceSigma is the log-normal σ of per-op service-time jitter.
	serviceSigma = 0.25
)

// DefaultDepth estimates the serialized (pointer-chasing) memory accesses
// per op — dict buckets, robj headers, expiry checks, TLB/page-walk
// misses — as a function of working-set size. Calibrated log-linearly to
// the paper's two reported sensitivities: at 100 GB a CXL-bound store
// loses ≈12.5% throughput (Fig. 8(b), D≈3), at 512 GB interleaving costs
// 1.2–1.5× (Fig. 5(a), D≈40); larger heaps miss more levels of the
// cache/TLB hierarchy on every lookup.
func DefaultDepth(workingSetBytes uint64) float64 {
	const (
		refBytes = 100 << 30 // 100 GB anchor
		refDepth = 3.0
		bigBytes = 512 << 30 // 512 GB anchor
		bigDepth = 40.0
	)
	if workingSetBytes <= refBytes {
		return refDepth
	}
	frac := math.Log(float64(workingSetBytes)/float64(refBytes)) /
		math.Log(float64(bigBytes)/float64(refBytes))
	d := refDepth + (bigDepth-refDepth)*frac
	return d
}

// Store is one KeyDB-like instance.
type Store struct {
	cfg     StoreConfig
	machine *topology.Machine
	alloc   *vmm.Allocator
	space   *vmm.Space
	ssd     *memsim.Path

	resident  []bool  // key → in-memory?
	clockRef  []uint8 // CLOCK reference bits
	clockHand int
	memKeys   int // resident key count
	cacheCap  int // max resident keys (maxmemory)

	// Per-epoch traffic accumulators and the loaded-latency cache, all
	// indexed by node ID (the vmm.accumulateShares idiom): the epoch loop
	// touches them once per op, so a slice index instead of a pointer-map
	// probe removes both the hash cost and the per-epoch map churn.
	// epochNodes lists the distinct nodes charged this epoch in
	// first-touch order — a deterministic replacement for ranging over
	// map keys when the flows are built.
	paths          []*memsim.Path // node ID → socket path (lazy)
	nodeReadBytes  []float64      // node ID → bytes this epoch
	nodeWriteBytes []float64
	nodeTouched    []bool // node ID → present in epochNodes
	epochNodes     []*topology.Node
	ssdReadBytes   float64
	ssdWriteBytes  float64

	// Loaded latencies for the current epoch (ns), by node ID, plus
	// scratch for collecting the space's distinct resident nodes.
	nodeLatency   []float64
	residentSeen  []bool
	residentNodes []*topology.Node
	flowScratch   []memsim.OpenFlow
	ssdLatency    float64

	// Most recent epoch-solve utilization, by resource name, plus each
	// resource's best-case peak (GB/s) for bandwidth estimation.
	lastUtil map[string]float64
	lastPeak map[string]float64

	depth float64 // serialized accesses per op (cost model)
	lines float64 // value cachelines per op

	tree *lsm.Tree // non-nil when cfg.UseLSM

	spill *spillState // non-nil when cfg.SpillDir is set (durable mode)

	rng *rand.Rand // drives representative-key page sampling

	misses, hits uint64
}

// StoreConfig sizes and places a store.
type StoreConfig struct {
	WorkingSetBytes uint64  // total dataset (paper: 512 GB / 100 GB)
	SimKeys         int     // simulated representative keys
	MaxMemoryFrac   float64 // fraction of the working set allowed in memory (1.0 = all)
	Flash           bool    // spill past maxmemory to SSD (KeyDB-FLASH)
	Policy          vmm.Policy
	Socket          int     // where the server threads run
	ValueBytes      float64 // record size (0 ⇒ 1024, the paper's default)
	// DependentAccesses overrides the serialized access depth per op
	// (0 ⇒ DefaultDepth(WorkingSetBytes)).
	DependentAccesses float64
	// UseLSM backs the Flash path with the structural LSM-tree model
	// (internal/lsm) instead of the analytic RocksDB cost constants:
	// compaction I/O, bloom-filtered reads, and the block cache then
	// emerge from tree dynamics.
	UseLSM bool
	// SpillDir, when non-empty (requires Flash), backs the spill path
	// with a real on-disk durable log (internal/spill): writes persist
	// through it, read misses verify against it, and SSD brownouts from
	// the fault schedule switch it into shedding mode. See durable.go.
	SpillDir string
	// SpillSyncEvery is the durable tier's group-commit window
	// (records per fsync; 0 ⇒ 8).
	SpillSyncEvery int
}

// NewStore allocates the store's heap on the machine under the policy.
func NewStore(m *topology.Machine, alloc *vmm.Allocator, cfg StoreConfig) (*Store, error) {
	if cfg.SimKeys <= 0 {
		return nil, fmt.Errorf("kvstore: SimKeys must be positive")
	}
	if cfg.MaxMemoryFrac <= 0 || cfg.MaxMemoryFrac > 1 {
		return nil, fmt.Errorf("kvstore: MaxMemoryFrac %v outside (0,1]", cfg.MaxMemoryFrac)
	}
	if cfg.MaxMemoryFrac < 1 && !cfg.Flash {
		return nil, fmt.Errorf("kvstore: maxmemory < working set requires Flash")
	}
	s := &Store{
		cfg:      cfg,
		machine:  m,
		alloc:    alloc,
		space:    vmm.NewSpace(0),
		ssd:      m.SSDPath(),
		resident: make([]bool, cfg.SimKeys),
		clockRef: make([]uint8, cfg.SimKeys),
	}
	if cfg.ValueBytes == 0 {
		cfg.ValueBytes = 1024
	}
	s.cfg = cfg
	s.depth = cfg.DependentAccesses
	if s.depth == 0 {
		s.depth = DefaultDepth(cfg.WorkingSetBytes)
	}
	s.lines = cfg.ValueBytes / 64
	memBytes := uint64(float64(cfg.WorkingSetBytes) * cfg.MaxMemoryFrac)
	if err := alloc.Alloc(s.space, memBytes, cfg.Policy); err != nil {
		return nil, fmt.Errorf("kvstore: allocating %d bytes: %w", memBytes, err)
	}
	residentFrac := cfg.MaxMemoryFrac
	if cfg.Flash {
		residentFrac *= 1 - flashCacheOverhead
	}
	s.cacheCap = int(float64(cfg.SimKeys) * residentFrac)
	if s.cacheCap < 1 {
		s.cacheCap = 1
	}
	// Initially the hottest possible prefix is resident (YCSB load phase
	// populates in key order; with Flash the tail spills).
	for k := 0; k < s.cacheCap; k++ {
		s.resident[k] = true
	}
	s.memKeys = s.cacheCap
	s.rng = rand.New(rand.NewSource(1))
	if cfg.Flash && cfg.UseLSM {
		// Scale the memtable to the simulated keyspace (≈64 flushes over
		// a full load) so tree dynamics appear at any SimKeys scale.
		memtable := uint64(float64(cfg.SimKeys) * cfg.ValueBytes / 64)
		if memtable < 64<<10 {
			memtable = 64 << 10
		}
		if memtable > 64<<20 {
			memtable = 64 << 20
		}
		s.tree = lsm.New(lsm.Config{Seed: 7, MemtableBytes: memtable, BlockCacheBytes: 4 * memtable})
		// The load phase persisted every record; seed the tree with the
		// full keyspace so Gets have structure to hit.
		for k := uint64(0); k < uint64(cfg.SimKeys); k++ {
			s.tree.Put(k, int(s.cfg.ValueBytes))
		}
		s.tree.DrainIO() // load-phase I/O predates measurement
	}
	if cfg.SpillDir != "" {
		if !cfg.Flash {
			return nil, fmt.Errorf("kvstore: SpillDir requires a Flash configuration")
		}
		if err := s.openSpill(); err != nil {
			return nil, err
		}
	}
	s.refreshLatencies(nil)
	return s, nil
}

// Machine exposes the topology the store's heap lives on, so fault
// injectors can be built against the same device set.
func (s *Store) Machine() *topology.Machine { return s.machine }

// Resolve recomputes the store's cached per-node latencies from the
// devices' *current* parameters at idle load. Fault injectors call it on
// every fault transition so service times react immediately; the next
// epoch's EpochFlows re-solves with real traffic.
func (s *Store) Resolve() { s.refreshLatencies(nil) }

// LSMStats exposes the Flash tree's shape (nil-safe; zero without LSM).
func (s *Store) LSMStats() lsm.Stats {
	if s.tree == nil {
		return lsm.Stats{}
	}
	return s.tree.Stats()
}

// WarmCache converges the Flash resident set to the workload's hot keys
// before measurement (the paper measures steady state, not cold start).
// Hit/miss counters are reset afterwards. No-op without Flash.
func (s *Store) WarmCache(mix workload.YCSBMix, draws int, seed int64) {
	if !s.cfg.Flash {
		return
	}
	gen := workload.NewYCSB(mix, uint64(s.cfg.SimKeys), seed)
	for i := 0; i < draws; i++ {
		key := gen.Next().Key % uint64(s.cfg.SimKeys)
		if s.resident[key] {
			s.clockRef[key] = 1
		} else {
			s.admit(key)
		}
	}
	s.hits, s.misses = 0, 0
}

// Space exposes the heap for tiering daemons.
func (s *Store) Space() *vmm.Space { return s.space }

// SimKeys reports the simulated keyspace size, so front ends (RESP) can
// hash real keys into it.
func (s *Store) SimKeys() int { return s.cfg.SimKeys }

// BytesPerKey is the real bytes one simulated key stands for.
func (s *Store) BytesPerKey() float64 {
	return float64(s.cfg.WorkingSetBytes) / float64(s.cfg.SimKeys)
}

// pageOf maps a key access to a heap page. Each simulated key stands for
// BytesPerKey of real records laid out contiguously (insertion order), so
// an access samples uniformly within the key's byte range — without the
// sampling, representative keys would alias onto a fixed page stride and
// systematically dodge (or hit) interleaved CXL pages.
func (s *Store) pageOf(key uint64) int {
	span := s.BytesPerKey() * s.cfg.MaxMemoryFrac
	off := uint64(float64(key)*span + s.rng.Float64()*span)
	if off >= s.space.Bytes() {
		off = s.space.Bytes() - 1
	}
	return s.space.PageFor(off)
}

// growNode extends the node-ID-indexed scratch slices to cover id.
func (s *Store) growNode(id int) {
	for id >= len(s.nodeReadBytes) {
		s.nodeReadBytes = append(s.nodeReadBytes, 0)
		s.nodeWriteBytes = append(s.nodeWriteBytes, 0)
		s.nodeTouched = append(s.nodeTouched, false)
		s.nodeLatency = append(s.nodeLatency, 0)
		s.residentSeen = append(s.residentSeen, false)
		s.paths = append(s.paths, nil)
	}
}

// touchNode registers n as charged this epoch.
func (s *Store) touchNode(n *topology.Node) {
	s.growNode(n.ID)
	if !s.nodeTouched[n.ID] {
		s.nodeTouched[n.ID] = true
		s.epochNodes = append(s.epochNodes, n)
	}
}

// pathTo returns (cached) the path from the server socket to a node.
func (s *Store) pathTo(n *topology.Node) *memsim.Path {
	s.growNode(n.ID)
	if p := s.paths[n.ID]; p != nil {
		return p
	}
	p := s.machine.PathFrom(s.cfg.Socket, n)
	s.paths[n.ID] = p
	return p
}

// CacheCounts reports the cumulative in-memory hits and misses, so
// epoch-level deltas (per-window hit ratio) can be derived without
// touching the hot path.
func (s *Store) CacheCounts() (hits, misses uint64) { return s.hits, s.misses }

// HitRate reports the in-memory hit fraction so far.
func (s *Store) HitRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 1
	}
	return float64(s.hits) / float64(total)
}

// ServiceTime computes one op's server-side service time (ns) under the
// current epoch latencies, charges its traffic to the epoch accumulators,
// and updates cache + heat state.
func (s *Store) ServiceTime(op workload.Op, now sim.Time) float64 {
	key := op.Key % uint64(s.cfg.SimKeys)
	page := s.pageOf(key)
	node := s.space.Pages[page].Node
	s.growNode(node.ID)
	lat := s.nodeLatency[node.ID]
	if lat == 0 {
		lat = s.pathTo(node).IdleLatency(memsim.ReadOnly)
	}

	// Dict walk + value stream on the resident path. The log-normal
	// jitter models per-op variance (dict chain length, allocator state,
	// interrupt noise) and is what gives the latency CDFs of Fig. 5(c)
	// and Fig. 8(a) their spread.
	memNs := s.depth*lat + s.lines*lat/streamMLP
	t := (softwareNs + memNs) * math.Exp(s.rng.NormFloat64()*serviceSigma)
	s.space.Touch(page, s.depth+s.lines, now)

	read := op.Kind == workload.OpRead || op.Kind == workload.OpScan
	lineBytes := s.depth*64 + s.cfg.ValueBytes
	s.touchNode(node)
	if read {
		s.nodeReadBytes[node.ID] += lineBytes
	} else {
		s.nodeWriteBytes[node.ID] += lineBytes
	}

	if s.cfg.Flash {
		if !s.resident[key] {
			s.misses++
			if read {
				if s.tree != nil {
					// Structural LSM read: pay one SSD latency per
					// block that missed the tree's block cache.
					c := s.tree.Get(key)
					t += float64(c.SSDReads)*s.ssdLatency + flashReadSoftwareNs
					s.ssdReadBytes += float64(c.BlockBytes)
				} else {
					// Analytic RocksDB Get from SSD.
					t += s.ssdLatency + flashReadSoftwareNs
					s.ssdReadBytes += s.cfg.ValueBytes
				}
			}
			if read && s.spill != nil {
				// Durable mode: a miss read hits the spill tier; verify
				// the on-disk record self-identifies as this key.
				s.spillVerify(key)
			}
			// Writes of non-resident keys need no SSD read; both kinds
			// admit the key afterwards.
			s.admit(key)
		} else {
			s.hits++
			s.clockRef[key] = 1
		}
		if !read {
			// KeyDB-FLASH persists every write to disk.
			t += flashWriteSoftwareNs
			if s.tree != nil {
				c := s.tree.Put(key, int(s.cfg.ValueBytes))
				s.ssdWriteBytes += float64(c.WALBytes)
			} else {
				s.ssdWriteBytes += s.cfg.ValueBytes
			}
			if s.spill != nil {
				// Durable mode: the write persists through the real
				// on-disk log (or is shed during a brownout). Spill I/O
				// backs durability only; it never feeds into t.
				s.spillWrite(key)
			}
		}
	}
	return t
}

// admit brings a key into memory, evicting via CLOCK if at capacity.
func (s *Store) admit(key uint64) {
	if s.memKeys >= s.cacheCap {
		// CLOCK eviction.
		for {
			if s.resident[s.clockHand] {
				if s.clockRef[s.clockHand] == 0 {
					s.resident[s.clockHand] = false
					s.memKeys--
					s.clockHand = (s.clockHand + 1) % s.cfg.SimKeys
					break
				}
				s.clockRef[s.clockHand] = 0
			}
			s.clockHand = (s.clockHand + 1) % s.cfg.SimKeys
		}
	}
	s.resident[key] = true
	s.clockRef[key] = 1
	s.memKeys++
}

// EpochFlows converts the epoch's accumulated traffic into open flows and
// refreshes per-node loaded latencies; extraBytes (e.g. tiering migration
// traffic, by node pair) may be folded in by the caller beforehand via
// AddMigrationTraffic. epochNs scales bytes to bandwidth.
func (s *Store) EpochFlows(epochNs float64) {
	flows := s.flowScratch[:0]
	for _, n := range s.epochNodes {
		r, w := s.nodeReadBytes[n.ID], s.nodeWriteBytes[n.ID]
		total := r + w
		if total == 0 {
			continue
		}
		flows = append(flows, memsim.OpenFlow{
			Placement: memsim.SinglePath(s.pathTo(n)),
			Mix:       memsim.Mix{ReadFrac: r / total},
			Offered:   total / epochNs,
		})
	}
	if s.tree != nil {
		// Background flush/compaction traffic contends on the SSD.
		r, w := s.tree.DrainIO()
		s.ssdReadBytes += float64(r)
		s.ssdWriteBytes += float64(w)
	}
	ssdTotal := s.ssdReadBytes + s.ssdWriteBytes
	if ssdTotal > 0 {
		flows = append(flows, memsim.OpenFlow{
			Placement: memsim.SinglePath(s.ssd),
			Mix:       memsim.Mix{ReadFrac: s.ssdReadBytes / ssdTotal},
			Offered:   ssdTotal / epochNs,
		})
	}
	s.refreshLatencies(flows)
	s.flowScratch = flows[:0]

	for _, n := range s.epochNodes {
		s.nodeReadBytes[n.ID], s.nodeWriteBytes[n.ID] = 0, 0
		s.nodeTouched[n.ID] = false
	}
	s.epochNodes = s.epochNodes[:0]
	s.ssdReadBytes, s.ssdWriteBytes = 0, 0
}

// EpochUtilization returns the per-resource utilization snapshot from
// the most recent epoch solve (resource name → capacity fraction) and
// the matching best-case peak bandwidths (GB/s). The maps are live;
// callers must not mutate them. Nil before the first epoch.
func (s *Store) EpochUtilization() (util, peakGBps map[string]float64) {
	return s.lastUtil, s.lastPeak
}

// AddMigrationTraffic charges page-migration bytes (read from src, write
// to dst) into the epoch accumulators so tiering contends with the app.
func (s *Store) AddMigrationTraffic(src, dst *topology.Node, bytes float64) {
	s.touchNode(src)
	s.touchNode(dst)
	s.nodeReadBytes[src.ID] += bytes
	s.nodeWriteBytes[dst.ID] += bytes
}

// refreshLatencies solves the flows and caches per-node loaded latency.
func (s *Store) refreshLatencies(flows []memsim.OpenFlow) {
	var util memsim.Utilization
	if len(flows) > 0 {
		_, util = memsim.SolveOpen(flows)
	}
	// Retain a by-name copy for observability consumers (obs gauges,
	// trace timelines).
	if s.lastUtil == nil {
		s.lastUtil = map[string]float64{}
		s.lastPeak = map[string]float64{}
	}
	for r, u := range util {
		s.lastUtil[r.Name] = u
		s.lastPeak[r.Name] = r.Peak.Max()
	}
	nodes := s.residentNodes[:0]
	for i := range s.space.Pages {
		n := s.space.Pages[i].Node
		s.growNode(n.ID)
		if !s.residentSeen[n.ID] {
			s.residentSeen[n.ID] = true
			nodes = append(nodes, n)
		}
	}
	for _, n := range nodes {
		p := s.pathTo(n)
		lat := 0.0
		for _, r := range p.Resources {
			lat += r.LatencyForUtil(util[r], memsim.ReadOnly)
		}
		s.nodeLatency[n.ID] = lat
		s.residentSeen[n.ID] = false
	}
	s.residentNodes = nodes[:0]
	s.ssdLatency = 0
	for _, r := range s.ssd.Resources {
		s.ssdLatency += r.LatencyForUtil(util[r], memsim.ReadOnly)
	}
}
