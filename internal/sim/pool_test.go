package sim

import "testing"

// These tests pin down the event-pool reuse hazards: a retained handle
// whose record has settled (fired/canceled) and possibly been recycled
// for a new event must never affect — or misreport — the new occupant.

// TestCancelStaleHandleDoesNotAliasReusedRecord is the core aliasing
// hazard: cancel an event, let its record be reused, then cancel the
// stale handle again. The new occupant must still fire.
func TestCancelStaleHandleDoesNotAliasReusedRecord(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func(Time) { t.Fatal("canceled event fired") })
	e.Cancel(a)

	// The freed record is top of the LIFO free list, so this reuses it.
	fired := false
	b := e.At(20, func(Time) { fired = true })

	e.Cancel(a) // stale: must not deschedule b
	if b.Pending() != true {
		t.Fatal("new occupant descheduled by a stale handle")
	}
	e.Run()
	if !fired {
		t.Fatal("reused event did not fire")
	}
}

// TestCanceledOnRecycledHandle: Canceled() is accurate from settle until
// reuse, then conservatively false — it must never leak the new
// occupant's state.
func TestCanceledOnRecycledHandle(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func(Time) {})
	e.Cancel(a)
	if !a.Canceled() {
		t.Fatal("Canceled() = false right after cancel")
	}

	// Reuse the record for b, then cancel b: the stale handle a must not
	// report b's cancellation as its own state transition, and b's handle
	// must report it.
	b := e.At(20, func(Time) {})
	if a.Canceled() {
		t.Fatal("stale handle reports state after its record was recycled")
	}
	e.Cancel(b)
	if a.Canceled() {
		t.Fatal("stale handle aliases the new occupant's canceled bit")
	}
	if !b.Canceled() {
		t.Fatal("live handle lost its canceled bit")
	}
}

// TestPendingAcrossReuse: Pending() is true only while the handle's own
// event is scheduled.
func TestPendingAcrossReuse(t *testing.T) {
	e := NewEngine()
	a := e.At(10, func(Time) {})
	if !a.Pending() {
		t.Fatal("scheduled event not pending")
	}
	e.Run()
	if a.Pending() {
		t.Fatal("fired event still pending")
	}
	b := e.At(20, func(Time) {}) // reuses a's record
	if a.Pending() {
		t.Fatal("stale handle pending via recycled record")
	}
	if !b.Pending() {
		t.Fatal("new occupant not pending")
	}
	var zero Event
	if zero.Pending() || zero.Canceled() {
		t.Fatal("zero handle reports state")
	}
}

// TestSameTimestampFIFOUnderPooling: the (time, seq) FIFO tie-break must
// survive heavy record recycling — a reused record carries a fresh
// sequence number, never its previous one.
func TestSameTimestampFIFOUnderPooling(t *testing.T) {
	e := NewEngine()
	// Churn the pool: schedule, cancel, and fire enough events to cycle
	// every record through the free list several times.
	for round := 0; round < 10; round++ {
		evs := make([]Event, 3*slabSize)
		for i := range evs {
			evs[i] = e.At(e.Now()+1, func(Time) {})
		}
		for i := 0; i < len(evs); i += 2 {
			e.Cancel(evs[i])
		}
		e.Run()
	}

	base := e.Now() + 5
	var order []int
	for i := 0; i < 2*slabSize; i++ {
		i := i
		e.At(base, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("FIFO violated after pooling churn at %d: %v", i, order[:i+1])
		}
	}
}

// reschedulingHandler re-arms itself until its countdown expires — the
// fire→reschedule loop that the pool keeps allocation-free.
type reschedulingHandler struct {
	eng  *Engine
	left int
}

func (h *reschedulingHandler) HandleEvent(now Time, arg uint64) {
	if h.left--; h.left > 0 {
		h.eng.AfterHandler(1, h, arg)
	}
}

// TestSteadyStateSchedulingDoesNotAllocate: once the slab is warm, the
// fire→reschedule handler loop runs with zero allocations per event.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	h := &reschedulingHandler{eng: e}
	allocs := testing.AllocsPerRun(100, func() {
		h.left = 1000
		e.AfterHandler(1, h, 0)
		e.Run()
	})
	// Amortized cost must be far below one allocation per event; the
	// occasional heap growth inside container/heap is tolerated.
	if allocs > 1 {
		t.Fatalf("steady-state run allocated %.1f times per 1000 events", allocs)
	}
}

// TestCrossShardStaleCancelIsRecycledNoOp: under a sharded engine, a
// handle from one shard's pool whose record has settled and been
// recycled must read as "recycled" through ANY engine — a stale cancel
// routed to the wrong shard is a no-op, never an alias onto the
// record's new occupant.
func TestCrossShardStaleCancelIsRecycledNoOp(t *testing.T) {
	se := NewSharded(2, 2, 10)
	e0, e1 := se.Partition(0), se.Partition(1)
	if e0 == e1 {
		t.Fatal("partitions share an engine; want 2 shards")
	}

	a := e0.At(1, func(Time) {})
	e0.Cancel(a) // settled: gen bumped once, record on e0's free list

	// Recycle a's record for a new occupant on its own shard.
	fired := false
	b := e0.At(5, func(Time) { fired = true })

	// The stale handle crosses the shard boundary: gen mismatch makes it
	// "recycled" before the ownership check, so this must be a no-op on
	// BOTH engines — not a panic, and not a deschedule of b.
	e1.Cancel(a)
	e0.Cancel(a)
	if a.Pending() || a.Canceled() {
		t.Fatal("recycled handle reports state through the new occupant")
	}
	if !b.Pending() {
		t.Fatal("stale cross-shard cancel descheduled the new occupant")
	}
	se.Run()
	if !fired {
		t.Fatal("new occupant did not fire after stale cross-shard cancel")
	}
}

// TestCrossShardLiveCancelPanics: canceling a LIVE event through an
// engine that does not own its record must panic. Silently splicing the
// record out of a foreign shard's timeline from another goroutine would
// corrupt it; silently doing nothing would leak the event. Only the
// stale (recycled) case is a safe no-op.
func TestCrossShardLiveCancelPanics(t *testing.T) {
	se := NewSharded(2, 2, 10)
	e0, e1 := se.Partition(0), se.Partition(1)

	live := e0.At(5, func(Time) {})
	defer func() {
		if recover() == nil {
			t.Fatal("live cross-shard Cancel did not panic")
		}
		// The foreign cancel must not have touched the record: the owner
		// can still cancel it.
		if !live.Pending() {
			t.Fatal("foreign Cancel descheduled the event before panicking")
		}
		e0.Cancel(live)
		if !live.Canceled() {
			t.Fatal("owner cancel failed after rejected foreign cancel")
		}
	}()
	e1.Cancel(live)
}

// TestCancelRecycledHeapIndex: a record that fired (idx = -1) and was
// reused sits at a new heap position; canceling through the old handle
// must not remove the wrong heap entry.
func TestCancelRecycledHeapIndex(t *testing.T) {
	e := NewEngine()
	a := e.At(1, func(Time) {})
	e.Run() // a fires; record freed

	var fired int
	b := e.At(2, func(Time) { fired++ }) // reuses a's record
	c := e.At(3, func(Time) { fired++ })
	e.Cancel(a) // stale; must not touch b or c
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d events after stale cancel, want 2", fired)
	}
	_ = b
	_ = c
}
