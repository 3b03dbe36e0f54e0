// Package sim provides a small deterministic discrete-event simulation
// kernel used by every other cxlsim subsystem.
//
// All cxlsim experiments run in virtual time: the kernel owns a virtual
// clock (nanosecond resolution, stored as float64 so sub-ns device math
// composes without truncation) and a timeline of pending events — a
// hierarchical timing wheel (wheel.go).
// Nothing in the library reads the wall clock; determinism is a hard
// invariant (see TestDeterminism) because the paper's figures must be
// regenerable bit-for-bit.
//
// For simulations too large for one timeline, ShardedEngine (shard.go)
// runs K engines in parallel under conservative-lookahead synchronization
// with deterministic cross-shard delivery.
//
// The kernel is allocation-free in steady state: event records live on an
// engine-owned free list and are recycled as they fire or are canceled.
// Event handles carry generation counters so a retained handle for a
// recycled record can never alias the record's new occupant (see Event).
// For hot loops that would otherwise allocate a closure per event, the
// Handler interface carries a uint64 argument instead of captured state.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation. float64 keeps device-model arithmetic exact enough
// (53-bit mantissa ≈ 104 days at 1 ns resolution) while allowing
// fractional-nanosecond latency composition.
type Time float64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond      = 1e3 * Nanosecond
	Millisecond      = 1e6 * Nanosecond
	Second           = 1e9 * Nanosecond
)

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%.1fns", float64(t))
	}
}

// Seconds reports the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler receives an event callback together with a caller-chosen uint64
// argument. Scheduling through a Handler instead of a closure keeps the
// per-event cost allocation-free: the argument (typically an index into
// caller-owned state) rides in the pooled event record, so nothing needs
// to be captured.
type Handler interface {
	HandleEvent(now Time, arg uint64)
}

// slot is one pooled event record. Records are owned by the engine and
// recycled through a free list; user code only ever sees Event handles.
type slot struct {
	at      Time
	seq     uint64
	fn      func(now Time)
	handler Handler
	arg     uint64
	// loc names the timeline container currently holding the record
	// (locNone when settled — see wheel.go for the values); idx is its
	// position within that container. Maintained by the timeline so a
	// cancel can splice the record out without a search.
	loc int32
	idx int
	// gen increments once when the record settles (fires or is canceled)
	// and once more when it is reused for a new event, so a handle can
	// tell "still mine and pending" (gen equal), "mine and settled" (gen
	// one ahead, canceled bit valid), and "recycled" (gen further ahead)
	// apart. See Event.
	gen      uint64
	canceled bool
	// owner is the engine whose pool the record belongs to. Cancel uses it
	// to reject a live handle handed to a foreign engine (e.g. across
	// ShardedEngine shards), where a silent deschedule would corrupt the
	// other shard's timeline.
	owner *Engine
}

// Event is a handle to a scheduled callback. The zero Event is valid and
// refers to no event (Cancel is a no-op, Canceled reports false).
//
// Handles are generation-checked: the underlying pooled record may be
// recycled for a new event after this one fires or is canceled, and a
// retained handle then goes stale. Operations on a stale handle are safe
// no-ops — Cancel can never deschedule the record's new occupant, and
// Canceled never reports the new occupant's state. Canceled stays
// accurate from the moment the event settles until its record is reused
// (the next At/After/AtHandler at the earliest); after that a stale
// handle conservatively reports false.
type Event struct {
	s   *slot
	gen uint64
}

// Canceled reports whether the event was descheduled before firing. For
// the zero handle, and for a stale handle whose record has been recycled,
// it reports false.
func (ev Event) Canceled() bool {
	if ev.s == nil {
		return false
	}
	switch ev.s.gen {
	case ev.gen:
		return false // still pending
	case ev.gen + 1:
		return ev.s.canceled // settled, record not yet reused
	default:
		return false // recycled: outcome no longer tracked
	}
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool {
	return ev.s != nil && ev.s.gen == ev.gen
}

// BatchItem is one entry of a batch schedule. Exactly one of Fn or
// Handler must be set; Arg is passed to Handler.
type BatchItem struct {
	At      Time
	Fn      func(now Time)
	Handler Handler
	Arg     uint64
}

// Observer receives kernel lifecycle callbacks. Implementations must be
// passive: they may record but must not schedule, cancel, or otherwise
// mutate the engine, or determinism is forfeit. The obs package provides
// the standard implementation (metrics + virtual-time tracing).
type Observer interface {
	// EventScheduled fires after an event is enqueued for time at;
	// pending is the queue depth including the new event.
	EventScheduled(at Time, pending int)
	// EventFired fires as the clock advances to now, before the event's
	// callback runs; pending excludes the firing event.
	EventFired(now Time, pending int)
	// EventCanceled fires when a pending event is descheduled.
	EventCanceled(now Time, pending int)
}

// slabSize is how many event records one free-list refill allocates.
const slabSize = 64

// Engine is a discrete-event simulator instance. The zero value is not
// usable; call NewEngine.
type Engine struct {
	now Time
	// tl is the pending-event timeline; its zero value is ready to use.
	tl     wheel
	nextSq uint64
	fired  uint64
	obs    Observer
	free   []*slot // recycled event records, LIFO
}

// NewEngine returns an engine with the clock at zero and an empty queue.
func NewEngine() *Engine {
	return &Engine{}
}

// SetObserver installs (or, with nil, removes) the engine's observer.
// One observer per engine; installing mid-run only affects subsequent
// events.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet fired.
func (e *Engine) Pending() int { return e.tl.len() }

// NextEventTime reports the fire time of the earliest pending event, or
// false if the timeline is empty. ShardedEngine uses it to compute epoch
// boundaries; it never advances the clock.
func (e *Engine) NextEventTime() (Time, bool) {
	return e.tl.peek()
}

// acquire pops a recycled record (or allocates a slab) and marks it live.
func (e *Engine) acquire() *slot {
	if len(e.free) == 0 {
		slab := make([]slot, slabSize)
		for i := range slab {
			slab[i].owner = e
			slab[i].loc = locNone
			slab[i].idx = -1
			e.free = append(e.free, &slab[i])
		}
	}
	s := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	s.gen++ // reuse: stale handles from the previous occupant detach
	s.canceled = false
	return s
}

// release settles a record (fired or canceled) and returns it to the
// free list. Callback references are dropped so captured state is not
// pinned past the event's lifetime.
func (e *Engine) release(s *slot, canceled bool) {
	s.gen++
	s.canceled = canceled
	s.fn = nil
	s.handler = nil
	s.arg = 0
	e.free = append(e.free, s)
}

// checkTime validates a fire time against the clock.
func (e *Engine) checkTime(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(float64(t)) || math.IsInf(float64(t), 0) {
		panic(fmt.Sprintf("sim: scheduling event at non-finite time %v", float64(t)))
	}
}

// schedule enqueues an acquired record at time t.
func (e *Engine) schedule(s *slot, t Time) Event {
	s.at = t
	s.seq = e.nextSq
	e.nextSq++
	e.tl.push(s)
	if e.obs != nil {
		e.obs.EventScheduled(t, e.tl.len())
	}
	return Event{s: s, gen: s.gen}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it would silently corrupt causality.
func (e *Engine) At(t Time, fn func(now Time)) Event {
	e.checkTime(t)
	s := e.acquire()
	s.fn = fn
	return e.schedule(s, t)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func(now Time)) Event {
	return e.At(e.now+d, fn)
}

// AtHandler schedules h.HandleEvent(now, arg) at absolute virtual time t.
// Unlike At, no closure is needed, so a hot loop that threads its state
// through arg schedules events without allocating.
func (e *Engine) AtHandler(t Time, h Handler, arg uint64) Event {
	e.checkTime(t)
	s := e.acquire()
	s.handler = h
	s.arg = arg
	return e.schedule(s, t)
}

// AfterHandler schedules h.HandleEvent(now, arg) d nanoseconds from now.
func (e *Engine) AfterHandler(d Time, h Handler, arg uint64) Event {
	return e.AtHandler(e.now+d, h, arg)
}

// AtBatch schedules every item in one call, preserving the FIFO
// tie-break: items at equal times fire in slice order, and the whole
// batch fires after any previously-scheduled events at the same times.
// The items slice is not retained, so callers may reuse a scratch slice
// across batches.
func (e *Engine) AtBatch(items []BatchItem) {
	for i := range items {
		it := &items[i]
		e.checkTime(it.At)
		s := e.acquire()
		s.fn = it.Fn
		s.handler = it.Handler
		s.arg = it.Arg
		e.schedule(s, it.At)
	}
}

// Cancel removes a pending event from the queue. Canceling the zero
// handle, an event that already fired or was already canceled, or a
// stale handle whose record was recycled is a no-op. Canceling a live
// event through an engine that does not own it panics: silently splicing
// a record out of a foreign timeline (e.g. another shard's) would corrupt
// that engine, and doing nothing would silently leak the event.
func (e *Engine) Cancel(ev Event) {
	s := ev.s
	if s == nil || s.gen != ev.gen || s.loc == locNone {
		return
	}
	if s.owner != e {
		panic("sim: Cancel of a live event through an engine that does not own it")
	}
	e.tl.remove(s)
	e.release(s, true)
	if e.obs != nil {
		e.obs.EventCanceled(e.now, e.tl.len())
	}
}

// Step fires the single earliest pending event, advancing the clock to its
// fire time. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	s := e.tl.pop()
	if s == nil {
		return false
	}
	e.now = s.at
	e.fired++
	// Copy the callback out and recycle the record before running it, so
	// an event that schedules from its own callback (the common
	// fire→reschedule loop) reuses its just-freed, cache-hot record.
	fn, h, arg := s.fn, s.handler, s.arg
	e.release(s, false)
	if e.obs != nil {
		e.obs.EventFired(e.now, e.tl.len())
	}
	if h != nil {
		h.HandleEvent(e.now, arg)
	} else {
		fn(e.now)
	}
	return true
}

// Run fires events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with time ≤ deadline, then sets the clock to the
// deadline (even if no event fired exactly there). Events scheduled beyond
// the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) Time {
	for {
		t, ok := e.tl.peek()
		if !ok || t > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Ticker invokes fn every period until Stop is called or the engine's
// queue drains past it. It is the backbone of epoch-driven co-simulation
// (tiering daemons, counters, app batch loops). A ticker schedules
// through the Handler path, so steady-state ticking does not allocate.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func(now Time)
	ev      Event
	stopped bool
}

// Every creates and starts a ticker with the given period. The first tick
// fires one full period from now. Period must be positive.
func (e *Engine) Every(period Time, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.arm()
	return t
}

// HandleEvent implements Handler: one tick.
func (t *Ticker) HandleEvent(now Time, _ uint64) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.ev = t.eng.AfterHandler(t.period, t, 0)
}

// Stop prevents future ticks. Safe to call multiple times.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.eng.Cancel(t.ev)
}
