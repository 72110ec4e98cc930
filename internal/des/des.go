// Package des provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock forward by executing scheduled events in
// timestamp order. Events with identical timestamps execute in the order they
// were scheduled (stable FIFO tie-breaking), so a simulation is fully
// reproducible given the same inputs and RNG seed.
//
// The scheduler is split by distance-to-due: events park in a three-level
// hierarchical timer wheel (wheel.go) for O(1) insertion — the paper's
// 3 s RTO retransmissions above all — and are promoted one 65 µs bucket
// at a time into a cache-friendly 4-ary min-heap (heap4.go) that only
// ever orders the events about to fire. Cancellation is O(1) and lazy: a
// cancelled event becomes a tombstone, dropped when the scheduler
// reaches it. DESIGN.md §14 describes the structure and its determinism
// argument.
//
// The kernel is intentionally single-threaded: all model code runs on the
// caller's goroutine inside Run/Step. This makes simulations deterministic
// and fast, and lets models share state without locks.
package des

import (
	"errors"
	"math/rand"
	"time"
)

// ErrHorizon is returned by Run when the simulation reaches the requested
// time horizon with events still pending.
var ErrHorizon = errors.New("des: horizon reached with pending events")

// Event lifecycle states. A pending event may fire or be cancelled; a
// fired or cancelled one may be re-armed, which makes it pending again.
// The zero value is pending so pooled events come out of the freelist
// ready to schedule.
const (
	eventPending uint8 = iota
	eventFired
	eventCanceled
)

// Event is a scheduled callback. Events created by Schedule/ScheduleAt
// can be cancelled before they fire, and any event with a handle can be
// re-armed with Rearm. Events created by Post/PostAt are pooled: the
// kernel recycles the object the moment it fires, so no handle to one
// ever escapes.
//
// An event's queue entries (heap or wheel nodes) carry the seq they were
// enqueued under, and seq here is the seq of the one live entry: an entry
// whose seq differs was superseded by a Rearm and is a tombstone, exactly
// like the entry of a cancelled event. state and pooled sit side by side
// so the struct stays at 80 bytes, one size class below 96.
type Event struct {
	time   time.Duration
	seq    uint64
	fn     func()
	state  uint8
	pooled bool

	// Pooled (Post) form: fn2 is called with the two stashed arguments,
	// and the object returns to the intrusive freelist before the call.
	fn2      func(a0, a1 any)
	a0, a1   any
	nextFree *Event
}

// NewEvent returns an unscheduled event that runs fn when it fires. It
// is idle — it behaves as an event that already fired — until Rearm
// enqueues it. A model that re-arms one timer for its whole lifetime
// allocates it here once, instead of once per Schedule.
func NewEvent(fn func()) *Event {
	return &Event{fn: fn, state: eventFired}
}

// Time returns the simulated time at which the event fires (or would have
// fired, if cancelled).
func (e *Event) Time() time.Duration { return e.time }

// Canceled reports whether Cancel removed the event before it fired.
// Cancelling an event whose callback already ran is a no-op, so a fired
// event never reports true.
func (e *Event) Canceled() bool { return e.state == eventCanceled }

// Simulator owns the virtual clock and the pending-event schedule.
type Simulator struct {
	now   time.Duration
	heap  heap4
	wheel wheel
	seq   uint64
	rng   *rand.Rand
	free  *Event // intrusive freelist of recycled pooled events

	executed    uint64
	pending     int
	peakPending int
	tombstones  int // cancelled events not yet reclaimed from heap/wheel
}

// NewSimulator returns a simulator whose clock starts at zero and whose RNG
// is seeded with seed.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current simulated time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() uint64 { return s.executed }

// Scheduled returns the number of events ever scheduled (including
// cancelled and pooled ones).
func (s *Simulator) Scheduled() uint64 { return s.seq }

// Pending returns the number of live events currently scheduled.
// Cancelled events leave this count the moment Cancel runs, even though
// their tombstones are reclaimed lazily.
func (s *Simulator) Pending() int { return s.pending }

// PeakPending returns the largest number of simultaneously live events
// seen so far — the kernel's own memory high-water mark, tracked
// unconditionally because a comparison per schedule is free next to the
// enqueue. Cancelled events stop counting at Cancel time; lazy
// tombstones never inflate the mark.
func (s *Simulator) PeakPending() int { return s.peakPending }

// Schedule registers fn to run after delay of simulated time. A negative
// delay is treated as zero. The returned Event may be cancelled. Each call
// allocates an Event (the handle keeps it alive); fire-and-forget callers
// on hot paths should use Post, which recycles events through a pool, and
// a timer re-armed over and over should be allocated once with NewEvent
// and moved with Rearm.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Event {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt registers fn to run at absolute simulated time t. Times in the
// past are clamped to the current time.
func (s *Simulator) ScheduleAt(t time.Duration, fn func()) *Event {
	if t < s.now {
		t = s.now
	}
	e := &Event{time: t, fn: fn}
	s.enqueue(t, e)
	return e
}

// Post registers fn to run after delay of simulated time with two
// caller-supplied arguments, on a pooled event: the kernel recycles
// event objects through an intrusive freelist, so steady-state posting
// allocates nothing. No handle is returned — a pooled event cannot be
// cancelled, because its object is reused the moment it fires. Use
// Schedule when the timer may need cancelling. A negative delay is
// treated as zero. Ordering is identical to Schedule: pooled and
// heap-allocated events share one (time, seq) sequence.
//
// Pass pointer-shaped arguments: boxing a non-pointer value into the
// any parameters allocates at the call site (the allocs analyzer flags
// it there).
//
//lint:hotpath DES kernel fire-and-forget scheduling path
func (s *Simulator) Post(delay time.Duration, fn func(a0, a1 any), a0, a1 any) {
	if delay < 0 {
		delay = 0
	}
	s.PostAt(s.now+delay, fn, a0, a1)
}

// PostAt is Post with an absolute simulated time, clamped to now.
//
//lint:hotpath DES kernel fire-and-forget scheduling path
func (s *Simulator) PostAt(t time.Duration, fn func(a0, a1 any), a0, a1 any) {
	if t < s.now {
		t = s.now
	}
	e := s.take()
	e.time = t
	e.fn2, e.a0, e.a1, e.pooled = fn, a0, a1, true
	s.enqueue(t, e)
}

// enqueue assigns the event its slot in the global (time, seq) order,
// bumps the live-event accounting, and routes it to the near-term heap
// or the timer wheel. The wheel is the default home: parking is O(1)
// and keeps the heap one bucket deep. Only events due below the
// promotion horizon — typically same-bucket microsecond chains, whose
// bucket has already been promoted — go straight to the heap, which is
// always correct because the heap may legally hold an event at any
// distance. If the wheel is idle its horizon may lag the clock
// arbitrarily, so it is first caught up (safe: there is nothing parked
// to skip).
//
//lint:hotpath
func (s *Simulator) enqueue(t time.Duration, e *Event) {
	seq := s.seq
	s.seq++
	e.seq = seq
	s.pending++
	if s.pending > s.peakPending {
		s.peakPending = s.pending
	}
	w := &s.wheel
	if w.resident() == 0 {
		if b := int64(s.now >> g0Bits); b > w.p0 {
			w.p0 = b
		}
	}
	if int64(t>>g0Bits) < w.p0 {
		s.heap.push(heapNode{time: t, seq: seq, ev: e})
		return
	}
	n := w.takeNode()
	n.time, n.seq, n.ev = t, seq, e
	w.place(n)
}

// take pops the freelist, falling back to the heap allocator only while
// the pool is warming up.
//
//lint:hotpath
func (s *Simulator) take() *Event {
	if e := s.free; e != nil {
		s.free = e.nextFree
		e.nextFree = nil
		return e
	}
	return &Event{} //lint:allow allocs pool warm-up: one object per concurrent pending event, reused forever after
}

// release clears the reference fields of a pooled event — so the
// freelist does not pin caller objects — and pushes it onto the
// freelist. The scalar fields are left stale on purpose: PostAt
// overwrites every one of them, and a full struct wipe costs a duffzero
// on the hottest path in the kernel.
//
//lint:hotpath
func (s *Simulator) release(e *Event) {
	e.fn2, e.a0, e.a1 = nil, nil, nil
	e.nextFree = s.free
	s.free = e
}

// Cancel removes the event from the schedule if it has not yet fired:
// the event is tombstoned in O(1) — no heap surgery — and its slot is
// reclaimed lazily when the scheduler reaches it (settle drops heap
// tombstones, promote drops wheel tombstones). Cancelling an event whose
// callback already ran is a no-op and does not mark it Canceled; so are
// re-cancelling and passing nil.
//
//lint:hotpath
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.state != eventPending {
		return
	}
	e.state = eventCanceled
	s.pending--
	s.tombstones++
}

// Rearm re-enqueues an existing event to fire after delay (negative
// means zero), whatever its state: pending, fired, cancelled or fresh
// from NewEvent. The event takes a fresh seq, so it orders exactly as a
// new Schedule at this point would. A pending event's old queue entry
// becomes a tombstone, so re-arming one has the same accounting as
// Cancel followed by Schedule — Scheduled, Pending and PeakPending all
// move identically — without allocating. Rearm must not be given a
// pooled event; none escapes Post.
//
//lint:hotpath DES kernel timer re-arm path
func (s *Simulator) Rearm(e *Event, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	if e.state == eventPending {
		s.pending--
		s.tombstones++
	}
	e.state = eventPending
	e.time = s.now + delay
	s.enqueue(e.time, e)
}

// settle drains tombstones — entries of cancelled events and entries a
// Rearm superseded — off the heap top and promotes due timer-wheel
// buckets until the heap top is the globally minimal live event,
// reporting false when no live events remain anywhere. The wheel
// invariant makes the order exact: every pending event below the
// promotion horizon is already in the heap, and every parked event is at
// or beyond it, so a heap top below the horizon is the global minimum.
// While the tombstone count is zero — the steady state of cancel-free
// stretches — the top's Event is never even loaded.
//
//lint:hotpath
func (s *Simulator) settle() bool {
	for {
		if s.wheel.resident() > 0 &&
			(len(s.heap.a) == 0 || int64(s.heap.a[0].time>>g0Bits) >= s.wheel.p0) {
			s.tombstones -= s.wheel.promote(&s.heap)
			continue
		}
		if len(s.heap.a) == 0 {
			return false
		}
		if s.tombstones == 0 {
			return true
		}
		top := &s.heap.a[0]
		if top.seq == top.ev.seq {
			switch top.ev.state {
			case eventPending:
				return true
			case eventFired:
				panic("des: fired event still queued")
			}
		}
		s.heap.pop() // cancelled or superseded entry: drop and move on
		s.tombstones--
	}
}

// fire advances the clock to t and runs the event's callback. A pooled
// event is released back to the freelist before its callback runs, so
// the callback can Post and reuse the very slot it fired from.
//
//lint:hotpath
func (s *Simulator) fire(e *Event, t time.Duration) {
	s.now = t
	s.executed++
	s.pending--
	if e.pooled {
		fn2, a0, a1 := e.fn2, e.a0, e.a1
		s.release(e)
		fn2(a0, a1)
		return
	}
	e.state = eventFired
	e.fn()
}

// Step executes the single next event, advancing the clock to its
// timestamp. It returns false when no live events remain.
//
//lint:hotpath DES kernel event loop
func (s *Simulator) Step() bool {
	if !s.settle() {
		return false
	}
	n := s.heap.pop()
	s.fire(n.ev, n.time)
	return true
}

// Run executes events until the schedule drains or the clock would pass
// horizon. Events scheduled exactly at the horizon still execute. It returns
// ErrHorizon if live events remain beyond the horizon, nil otherwise.
//
//lint:hotpath DES kernel event loop
func (s *Simulator) Run(horizon time.Duration) error {
	for s.settle() {
		if s.heap.a[0].time > horizon {
			s.now = horizon
			return ErrHorizon
		}
		n := s.heap.pop()
		s.fire(n.ev, n.time)
	}
	if s.now < horizon {
		s.now = horizon
	}
	return nil
}
