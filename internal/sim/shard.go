package sim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// ShardedEngine runs K engines ("shards") over N logical partitions with
// conservative-lookahead synchronization, the classic parallel
// discrete-event scheme: virtual time is cut into epochs no wider than
// the lookahead L (the minimum cross-partition latency, e.g. a fabric
// hop), every shard runs its own timeline independently up to the epoch
// boundary, and all cross-partition interaction goes through Send, which
// may only target times ≥ sender now + L. An event sent during an epoch
// therefore always lands in a strictly later epoch, so shards never see
// each other mid-epoch and need no rollback.
//
// Determinism is byte-exact and shard-count-invariant: partitions are
// logical (a kvstore node, an llmserve instance) and their timelines
// depend only on their own events plus delivered messages; pending
// messages are delivered at epoch boundaries in (time, source partition,
// per-source sequence) order, a key that does not mention the physical
// shard. Running with -shards 1 or -shards 8 yields identical tables —
// the same bar the -parallel experiment runner meets.
//
// Concurrency contract: between Run*/epoch boundaries the coordinator
// goroutine owns everything. During an epoch each shard goroutine may
// touch only its own partitions' state and may call Send only with src
// partitions it owns. Observers are per-engine and stay single-threaded.
type ShardedEngine struct {
	lookahead Time
	engines   []*Engine
	partShard []int    // logical partition -> shard index
	sendSeq   []uint64 // per-partition send sequence, owned by the sender's shard
	outbox    [][]message
	pending   []message
	boundary  Time // last completed epoch boundary
	epochs    uint64
}

// message is one cross-partition event in flight between epochs.
type message struct {
	at  Time
	src int // sending logical partition
	seq uint64
	dst int
	fn  func(now Time)
}

// NewSharded creates a sharded engine over partitions logical partitions
// executed by shards parallel shards (capped at the partition count).
// Partition p runs on shard p mod K, so natural enumerations spread
// round-robin. The lookahead must be positive, finite, and no larger than
// the true minimum cross-partition latency, or determinism is forfeit.
func NewSharded(partitions, shards int, lookahead Time) *ShardedEngine {
	if partitions < 1 {
		panic(fmt.Sprintf("sim: NewSharded needs at least one partition (got %d)", partitions))
	}
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewSharded needs at least one shard (got %d)", shards))
	}
	if !(lookahead > 0) || math.IsInf(float64(lookahead), 0) {
		panic(fmt.Sprintf("sim: NewSharded lookahead must be positive and finite (got %v)", float64(lookahead)))
	}
	if shards > partitions {
		shards = partitions
	}
	se := &ShardedEngine{
		lookahead: lookahead,
		engines:   make([]*Engine, shards),
		partShard: make([]int, partitions),
		sendSeq:   make([]uint64, partitions),
		outbox:    make([][]message, shards),
	}
	for i := range se.engines {
		se.engines[i] = NewEngine()
	}
	for p := range se.partShard {
		se.partShard[p] = p % shards
	}
	return se
}

// Partition returns the engine that owns logical partition p. Local
// (same-partition) events are scheduled directly on it; only
// cross-partition interaction needs Send.
func (se *ShardedEngine) Partition(p int) *Engine { return se.engines[se.partShard[p]] }

// Shards reports the number of parallel shards (after capping).
func (se *ShardedEngine) Shards() int { return len(se.engines) }

// Now reports the last completed epoch boundary; every shard's clock has
// reached it.
func (se *ShardedEngine) Now() Time { return se.boundary }

// Epochs reports how many synchronization epochs have run.
func (se *ShardedEngine) Epochs() uint64 { return se.epochs }

// Fired sums the events executed across all shards.
func (se *ShardedEngine) Fired() uint64 {
	var n uint64
	for _, e := range se.engines {
		n += e.Fired()
	}
	return n
}

// Send schedules fn on partition dst at absolute time at, from partition
// src. It must be called either from the coordinator between runs or from
// a callback running on src's shard, and at must be at least the sender's
// current time plus the lookahead — that slack is what lets shards run
// epochs without observing each other.
func (se *ShardedEngine) Send(src, dst int, at Time, fn func(now Time)) {
	shard := se.partShard[src] // panics on out-of-range src, as intended
	if dst < 0 || dst >= len(se.partShard) {
		panic(fmt.Sprintf("sim: Send to unknown partition %d", dst))
	}
	if min := se.engines[shard].Now() + se.lookahead; at < min {
		panic(fmt.Sprintf("sim: Send at %v violates lookahead (sender now %v + lookahead %v)",
			at, se.engines[shard].Now(), se.lookahead))
	}
	se.outbox[shard] = append(se.outbox[shard], message{at: at, src: src, seq: se.sendSeq[src], dst: dst, fn: fn})
	se.sendSeq[src]++
}

// Run executes epochs until every shard's timeline drains and no message
// is in flight, then returns the final boundary.
func (se *ShardedEngine) Run() Time { return se.RunWhile(nil) }

// RunWhile executes epochs while active (if non-nil) keeps returning true,
// stopping early at the first boundary where it reports false. active is
// called with all shards quiescent, so it may read any partition's state.
func (se *ShardedEngine) RunWhile(active func() bool) Time {
	for {
		if active != nil && !active() {
			return se.boundary
		}
		se.collect() // fold outboxes (epoch sends, or coordinator setup sends) into pending
		tmin, ok := se.nextTime()
		if !ok {
			return se.boundary
		}
		b := se.nextBoundary(tmin)
		se.deliver(b)
		se.runEpoch(b)
		se.boundary = b
		se.epochs++
	}
}

// nextTime reports the earliest pending work — event or in-flight
// message — across every shard. It is shard-count-invariant, which makes
// the epoch boundary sequence (and thus all delivery grouping) invariant
// too.
func (se *ShardedEngine) nextTime() (Time, bool) {
	var tmin Time
	ok := false
	for _, e := range se.engines {
		if t, has := e.NextEventTime(); has && (!ok || t < tmin) {
			tmin, ok = t, true
		}
	}
	for i := range se.pending {
		if t := se.pending[i].at; !ok || t < tmin {
			tmin, ok = t, true
		}
	}
	return tmin, ok
}

// nextBoundary picks the epoch end: the next lookahead multiple, jumping
// ahead over empty regions straight to the multiple covering the first
// pending work item. Aligning to multiples of L (rather than tmin+L)
// keeps the boundary sequence independent of shard count.
func (se *ShardedEngine) nextBoundary(tmin Time) Time {
	b := se.boundary + se.lookahead
	if tmin > b {
		b = Time(math.Ceil(float64(tmin)/float64(se.lookahead))) * se.lookahead
		if b < tmin { // float rounding guard
			b = tmin
		}
	}
	return b
}

// deliver schedules every in-flight message with arrival ≤ b onto its
// destination shard, in (time, source partition, sequence) order. The
// key never mentions the physical shard, and schedule order breaks
// equal-time ties via the engine's FIFO sequence, so delivery order — and
// therefore every downstream table — is identical at any shard count.
func (se *ShardedEngine) deliver(b Time) {
	if len(se.pending) == 0 {
		return
	}
	sort.Slice(se.pending, func(i, j int) bool {
		a, c := &se.pending[i], &se.pending[j]
		if a.at != c.at {
			return a.at < c.at
		}
		if a.src != c.src {
			return a.src < c.src
		}
		return a.seq < c.seq
	})
	n := 0
	for i := range se.pending {
		m := &se.pending[i]
		if m.at > b {
			break
		}
		se.engines[se.partShard[m.dst]].At(m.at, m.fn)
		n++
	}
	se.pending = se.pending[:copy(se.pending, se.pending[n:])]
}

// runEpoch advances every shard to the boundary, in parallel when there
// is more than one shard. Shard state is disjoint during the epoch, so
// the only synchronization needed is the join.
func (se *ShardedEngine) runEpoch(b Time) {
	if len(se.engines) == 1 {
		se.engines[0].RunUntil(b)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(se.engines))
	for _, e := range se.engines {
		go func(e *Engine) {
			defer wg.Done()
			e.RunUntil(b)
		}(e)
	}
	wg.Wait()
}

// collect folds the per-shard outboxes into the pending queue. Order here
// is irrelevant — deliver sorts by the logical key.
func (se *ShardedEngine) collect() {
	for i, box := range se.outbox {
		se.pending = append(se.pending, box...)
		se.outbox[i] = box[:0]
	}
}
