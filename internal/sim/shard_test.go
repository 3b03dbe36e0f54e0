package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// shardActor is one logical partition in the determinism tests: a
// self-rescheduling local chain that occasionally sends to other
// partitions, logging everything it does. Per-actor RNG state makes the
// log sensitive to any ordering perturbation.
type shardActor struct {
	se   *ShardedEngine
	all  []*shardActor
	id   int
	rng  *rand.Rand
	log  strings.Builder
	ops  int
	look Time
}

func (a *shardActor) step(now Time) {
	fmt.Fprintf(&a.log, "L %d %.4f\n", a.ops, float64(now))
	a.ops--
	if a.ops <= 0 {
		return
	}
	d := Time(a.rng.Intn(3000)) + Time(a.rng.Float64())
	switch a.rng.Intn(5) {
	case 0: // closure send
		dst := a.rng.Intn(len(a.all))
		a.se.Send(a.id, dst, now+a.look+d, a.all[dst].remote)
	case 1: // closure send carrying the source id
		dst, src := a.all[a.rng.Intn(len(a.all))], a.id
		a.se.Send(a.id, dst.id, now+a.look+d, func(now Time) {
			fmt.Fprintf(&dst.log, "H %d %.4f\n", src, float64(now))
		})
	}
	a.se.Partition(a.id).At(now+1+d, a.step)
}

func (a *shardActor) remote(now Time) {
	fmt.Fprintf(&a.log, "R %.4f\n", float64(now))
}

// runShardWorkload executes the standard workload and returns a full
// fingerprint: every actor's log plus kernel counters.
func runShardWorkload(partitions, shards int, ops int) string {
	const look = 500 * Nanosecond
	se := NewSharded(partitions, shards, look)
	actors := make([]*shardActor, partitions)
	for i := range actors {
		actors[i] = &shardActor{
			se: se, id: i, ops: ops, look: look,
			rng: rand.New(rand.NewSource(1000 + int64(i))),
		}
	}
	for _, a := range actors {
		a.all = actors
		se.Partition(a.id).At(Time(a.id)/8, a.step)
	}
	end := se.Run()
	var b strings.Builder
	fmt.Fprintf(&b, "end=%.4f epochs=%d fired=%d\n", float64(end), se.Epochs(), se.Fired())
	for _, a := range actors {
		fmt.Fprintf(&b, "-- actor %d --\n%s", a.id, a.log.String())
	}
	return b.String()
}

// TestShardedDeterminism is the core invariant: byte-identical behavior
// at every shard count, including counts that do not divide the partition
// count and counts above it (which clamp). make race-shard runs this
// under the race detector.
func TestShardedDeterminism(t *testing.T) {
	want := runShardWorkload(6, 1, 40)
	if !strings.Contains(want, "R ") && !strings.Contains(want, "H ") {
		t.Fatalf("workload produced no cross-partition traffic; test is vacuous")
	}
	for _, shards := range []int{2, 3, 4, 6, 8} {
		if got := runShardWorkload(6, shards, 40); got != want {
			t.Fatalf("shards=%d diverged from shards=1:\n%s", shards, firstDiff(want, got))
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d: %q vs %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length %d vs %d lines", len(al), len(bl))
}

func TestShardedLookaheadViolationPanics(t *testing.T) {
	se := NewSharded(2, 2, 1000)
	defer func() {
		if recover() == nil {
			t.Fatalf("Send below the lookahead bound did not panic")
		}
	}()
	se.Send(0, 1, 999, func(Time) {})
}

func TestShardedEmptyEpochSkip(t *testing.T) {
	se := NewSharded(2, 2, 1000)
	var fired [2]int // one cell per partition: no cross-shard writes
	se.Partition(0).At(5e9, func(Time) { fired[0]++ })
	se.Partition(1).At(9e9, func(Time) { fired[1]++ })
	se.Run()
	if fired[0]+fired[1] != 2 {
		t.Fatalf("fired %d events, want 2", fired[0]+fired[1])
	}
	// Without skip-ahead this run would take ~9e6 thousand-tick epochs.
	if se.Epochs() > 8 {
		t.Fatalf("%d epochs for two sparse events; empty-epoch skip is broken", se.Epochs())
	}
}

func TestShardedRunWhileStops(t *testing.T) {
	se := NewSharded(2, 2, 1000)
	count := 0
	var chain func(now Time)
	chain = func(now Time) {
		count++
		se.Partition(0).At(now+100, chain)
	}
	se.Partition(0).At(0, chain)
	se.RunWhile(func() bool { return count < 50 })
	if count < 50 {
		t.Fatalf("stopped after %d events, want ≥ 50", count)
	}
	if se.Now() <= 0 {
		t.Fatalf("boundary did not advance")
	}
	// Events beyond the stop boundary stay queued.
	if se.Partition(0).Pending() == 0 {
		t.Fatalf("chain event was dropped at stop")
	}
}

func TestShardedClampAndValidation(t *testing.T) {
	if got := NewSharded(3, 8, 100).Shards(); got != 3 {
		t.Fatalf("shards clamped to %d, want 3 (partition count)", got)
	}
	for _, bad := range []func(){
		func() { NewSharded(0, 1, 100) },
		func() { NewSharded(1, 0, 100) },
		func() { NewSharded(1, 1, 0) },
		func() { NewSharded(1, 1, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("invalid NewSharded arguments did not panic")
				}
			}()
			bad()
		}()
	}
}

// TestShardedSetupSends covers coordinator-time sends before the first
// epoch: they must respect lookahead from t=0 and deliver exactly once.
func TestShardedSetupSends(t *testing.T) {
	se := NewSharded(3, 2, 1000)
	var got [3]float64 // one cell per destination partition: no cross-shard writes
	for i := 0; i < 3; i++ {
		i := i
		se.Send(0, i, Time(1000+i), func(now Time) { got[i] = float64(now) })
	}
	se.Run()
	if fmt.Sprint(got) != "[1000 1001 1002]" {
		t.Fatalf("setup sends delivered at %v, want [1000 1001 1002]", got)
	}
}
