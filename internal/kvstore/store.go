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

	"cxlsim/internal/memsim"
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

	// valueBytes is the record size (the paper's 1 KB YCSB records) and
	// valueLines the cachelines one value copy streams.
	valueBytes = 1024
	valueLines = valueBytes / 64
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

	// CLOCK cache state, Flash stores only: one byte of keyResident and
	// keyRef flags per key, the hand, and the resident key count.
	clock     []uint8
	clockHand int
	memKeys   int
	cacheCap  int // max resident keys (maxmemory)

	// Per-epoch traffic accumulators and the loaded-latency cache, all
	// indexed by node ID: the epoch loop touches them once per op, so a
	// slice index instead of a pointer-map probe removes both the hash
	// cost and the per-epoch map churn.
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

	// Loaded latencies for the current epoch (ns), by node ID, for every
	// node of the machine.
	nodeLatency []float64
	flowScratch []memsim.OpenFlow
	ssdLatency  float64

	// Most recent epoch-solve utilization, by resource name, plus each
	// resource's best-case peak (GB/s) for bandwidth estimation.
	lastUtil map[string]float64
	lastPeak map[string]float64

	depth   float64 // serialized accesses per op (cost model)
	keySpan float64 // heap bytes one simulated key spans (pageOf)

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
		cfg:     cfg,
		machine: m,
		alloc:   alloc,
		space:   vmm.NewSpace(0),
		ssd:     m.SSDPath(),
		depth:   DefaultDepth(cfg.WorkingSetBytes),
	}
	s.keySpan = s.BytesPerKey() * cfg.MaxMemoryFrac
	memBytes := uint64(float64(cfg.WorkingSetBytes) * cfg.MaxMemoryFrac)
	if err := alloc.Alloc(s.space, memBytes, cfg.Policy); err != nil {
		return nil, fmt.Errorf("kvstore: allocating %d bytes: %w", memBytes, err)
	}
	if cfg.Flash {
		s.cacheCap = max(1, int(float64(cfg.SimKeys)*(cfg.MaxMemoryFrac*(1-flashCacheOverhead))))
		// Initially the hottest possible prefix is resident (YCSB load
		// phase populates in key order; the tail spills).
		s.clock = make([]uint8, cfg.SimKeys)
		for k := range s.cacheCap {
			s.clock[k] = keyResident
		}
		s.memKeys = s.cacheCap
	}
	s.rng = rand.New(rand.NewSource(1))
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

// WarmCache converges the Flash resident set to the workload's hot keys
// before measurement (the paper measures steady state, not cold start).
// It replays the mix's first draws keys through CLOCK, in batches of
// warmCacheBatch that a keyStream draws one batch ahead, so key
// generation overlaps the serial CLOCK pass. Hit/miss counters are reset
// afterwards. No-op without Flash.
func (s *Store) WarmCache(mix workload.YCSBMix, draws int, seed int64) {
	if !s.cfg.Flash {
		return
	}
	n := uint64(s.cfg.SimKeys)
	keys := newKeyStream(mix, n, seed, draws, warmCacheBatch)
	defer keys.stop()
	for batch := keys.next(); batch != nil; batch = keys.next() {
		for _, key := range batch {
			// Inserts (YCSB-D) may draw keys past the keyspace.
			if key >= n {
				key %= n
			}
			s.reference(key)
		}
	}
	s.hits, s.misses = 0, 0
}

// warmCacheBatch is how many keys WarmCache draws at a time.
const warmCacheBatch = 1 << 16

// keyStream is the key stream of workload.NewYCSB(mix, n, seed) with the
// op kinds thrown away, as warm-ups replay it. One producer goroutine
// draws the stream's total keys in batches, one batch ahead of the
// caller, so drawing overlaps the caller's work on the batch before.
// When the mix allows (YCSB.ScrambledKeys) each batch's Zipfian
// inversions fan out over GOMAXPROCS; otherwise the keys come from serial
// YCSB.Next calls. Only the producer touches the generator, in order, so
// the keys are the same either way and as a serial caller would draw
// them.
type keyStream struct {
	batches chan []uint64
	quit    chan struct{} // closed by stop
	exited  chan struct{} // closed when the producer returns
}

// newKeyStream starts drawing total keys in batches of batch (the last
// one partial). The producer exits after handing over the last batch, or
// at its next hand-over once stop is called; the caller must call stop
// before it returns.
func newKeyStream(mix workload.YCSBMix, n uint64, seed int64, total, batch int) *keyStream {
	ks := &keyStream{batches: make(chan []uint64), quit: make(chan struct{}), exited: make(chan struct{})}
	go ks.produce(workload.NewYCSB(mix, n, seed), total, batch)
	return ks
}

// produce fills two buffers in turn. The channel is unbuffered, so a
// buffer is refilled only after the caller has received the other one,
// which is when the caller is done with the refilled one.
func (ks *keyStream) produce(gen *workload.YCSB, total, batch int) {
	defer close(ks.exited)
	defer close(ks.batches)
	z := gen.ScrambledKeys()
	var bufs [2][]uint64
	for i, left := 0, total; left > 0; i, left = 1-i, left-batch {
		if bufs[i] == nil {
			bufs[i] = make([]uint64, min(total, batch))
		}
		keys := bufs[i][:min(left, batch)]
		if z != nil {
			z.Fill(keys, 0)
		} else {
			for j := range keys {
				keys[j] = gen.Next().Key
			}
		}
		select {
		case ks.batches <- keys:
		case <-ks.quit:
			return
		}
	}
}

// next returns the stream's next batch, valid until the call after next,
// or nil once every batch has been taken.
func (ks *keyStream) next() []uint64 { return <-ks.batches }

// stop makes the producer exit, if it has not already, and waits for it.
func (ks *keyStream) stop() {
	close(ks.quit)
	<-ks.exited
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
	off := uint64(float64(key)*s.keySpan + s.rng.Float64()*s.keySpan)
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

// pathTo returns (cached) the path from the server threads' socket 0 to
// a node.
func (s *Store) pathTo(n *topology.Node) *memsim.Path {
	s.growNode(n.ID)
	if p := s.paths[n.ID]; p != nil {
		return p
	}
	p := s.machine.PathFrom(0, n)
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
func (s *Store) ServiceTime(op workload.Op) float64 {
	key := op.Key % uint64(s.cfg.SimKeys)
	page := s.pageOf(key)
	node := s.machine.Nodes[s.space.Pages[page].NodeID]
	lat := s.nodeLatency[node.ID]

	// Dict walk + value stream on the resident path. The log-normal
	// jitter models per-op variance (dict chain length, allocator state,
	// interrupt noise) and is what gives the latency CDFs of Fig. 5(c)
	// and Fig. 8(a) their spread.
	memNs := s.depth*lat + valueLines*lat/streamMLP
	t := (softwareNs + memNs) * math.Exp(s.rng.NormFloat64()*serviceSigma)
	s.space.Touch(page, s.depth+valueLines)

	read := op.Kind == workload.OpRead || op.Kind == workload.OpScan
	lineBytes := s.depth*64 + valueBytes
	s.touchNode(node)
	if read {
		s.nodeReadBytes[node.ID] += lineBytes
	} else {
		s.nodeWriteBytes[node.ID] += lineBytes
	}

	if s.cfg.Flash {
		// Both kinds admit a non-resident key; only reads fetch it.
		if s.reference(key) {
			s.hits++
		} else {
			s.misses++
			if read {
				// Analytic RocksDB Get from SSD.
				t += s.ssdLatency + flashReadSoftwareNs
				s.ssdReadBytes += valueBytes
			}
		}
		if !read {
			// KeyDB-FLASH persists every write to disk.
			t += flashWriteSoftwareNs
			s.ssdWriteBytes += valueBytes
		}
	}
	return t
}

// CLOCK flags of a key. A key that is not resident has neither.
const (
	keyResident uint8 = 1 << iota
	keyRef
)

// reference sets key's CLOCK reference flag, admitting the key first if
// it is not resident, and reports whether it was resident.
func (s *Store) reference(key uint64) bool {
	if s.clock[key]&keyResident != 0 {
		s.clock[key] |= keyRef
		return true
	}
	s.admit(key)
	return false
}

// admit brings a key into memory, evicting via CLOCK if at capacity.
func (s *Store) admit(key uint64) {
	if s.memKeys >= s.cacheCap {
		// CLOCK eviction.
		for {
			if f := s.clock[s.clockHand]; f&keyResident != 0 {
				if f&keyRef == 0 {
					s.clock[s.clockHand] = 0
					s.memKeys--
					s.advanceClock()
					break
				}
				s.clock[s.clockHand] = keyResident
			}
			s.advanceClock()
		}
	}
	s.clock[key] = keyResident | keyRef
	s.memKeys++
}

// advanceClock moves the CLOCK hand to the next key, wrapping at SimKeys.
func (s *Store) advanceClock() {
	s.clockHand++
	if s.clockHand == s.cfg.SimKeys {
		s.clockHand = 0
	}
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

// refreshLatencies solves the flows and caches the loaded latency of
// every node of the machine (a handful), not only of those holding the
// store's pages: a page migrated onto a node between two refreshes is
// priced from that node's latency under the last solve.
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
	for _, n := range s.machine.Nodes {
		lat := 0.0
		for _, r := range s.pathTo(n).Resources {
			lat += r.LatencyForUtil(util[r], memsim.ReadOnly)
		}
		s.nodeLatency[n.ID] = lat
	}
	s.ssdLatency = 0
	for _, r := range s.ssd.Resources {
		s.ssdLatency += r.LatencyForUtil(util[r], memsim.ReadOnly)
	}
}
