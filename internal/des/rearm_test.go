package des

import (
	"testing"
	"time"
	"unsafe"
)

// TestEventSize pins the Event layout: the seq tag must not push the
// struct out of the 80-byte size class into the 96-byte one.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 80 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 80", got)
	}
}

// TestNewEventIsIdle checks that a fresh NewEvent is not scheduled:
// nothing is pending, Cancel is a no-op and it never fires on its own.
func TestNewEventIsIdle(t *testing.T) {
	sim := NewSimulator(1)
	fired := 0
	ev := NewEvent(func() { fired++ })
	sim.Cancel(ev)
	if ev.Canceled() || sim.Pending() != 0 || sim.Scheduled() != 0 {
		t.Fatalf("idle event: Canceled=%v Pending=%d Scheduled=%d, want false/0/0",
			ev.Canceled(), sim.Pending(), sim.Scheduled())
	}
	if err := sim.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 0 {
		t.Fatalf("idle event fired %d times", fired)
	}
}

// TestRearmPending moves a pending event earlier and later, in the near
// heap and across the wheel: it fires exactly once, at the last armed
// time, and its superseded entries never fire.
func TestRearmPending(t *testing.T) {
	for _, tc := range []struct {
		name          string
		first, second time.Duration
	}{
		{"near to nearer", 50 * time.Microsecond, 10 * time.Microsecond},
		{"near to RTO", 50 * time.Microsecond, 3 * time.Second},
		{"RTO to near", 3 * time.Second, 10 * time.Microsecond},
		{"overflow to level 1", 20 * time.Minute, 30 * time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := NewSimulator(1)
			var at []time.Duration
			ev := sim.Schedule(tc.first, func() { at = append(at, sim.Now()) })
			sim.Rearm(ev, tc.second)
			if ev.Time() != tc.second {
				t.Fatalf("Time() = %v after Rearm, want %v", ev.Time(), tc.second)
			}
			if err := sim.Run(time.Hour); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(at) != 1 || at[0] != tc.second {
				t.Fatalf("fired at %v, want once at %v", at, tc.second)
			}
			if sim.Pending() != 0 || sim.tombstones != 0 {
				t.Fatalf("after drain: Pending=%d tombstones=%d, want 0/0", sim.Pending(), sim.tombstones)
			}
		})
	}
}

// TestRearmFired re-arms an event after it fired — from outside and from
// inside its own callback, the ticker shape — and it fires again.
func TestRearmFired(t *testing.T) {
	sim := NewSimulator(1)
	var at []time.Duration
	var ev *Event
	ev = sim.Schedule(time.Millisecond, func() {
		at = append(at, sim.Now())
		if len(at) == 1 {
			sim.Rearm(ev, time.Millisecond)
		}
	})
	if err := sim.Run(time.Second); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sim.Rearm(ev, 3*time.Second)
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

// TestRearmCanceled re-arms a cancelled event: it is live again, no
// longer reports Canceled, and fires once at its new time.
func TestRearmCanceled(t *testing.T) {
	sim := NewSimulator(1)
	fired := 0
	ev := sim.Schedule(time.Second, func() { fired++ })
	sim.Cancel(ev)
	sim.Rearm(ev, 2*time.Second)
	if ev.Canceled() {
		t.Fatal("re-armed event still reports Canceled")
	}
	if sim.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", sim.Pending())
	}
	if err := sim.Run(time.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want once", fired)
	}
}

// TestRearmAccountingMatchesCancelSchedule drives two simulators through
// the same script, one re-arming a single event and the other cancelling
// and scheduling fresh ones, and requires Pending, PeakPending,
// Scheduled, Executed and the firing log to agree after every step.
func TestRearmAccountingMatchesCancelSchedule(t *testing.T) {
	delays := []time.Duration{
		3 * time.Second, 10 * time.Microsecond, 20 * time.Minute,
		40 * time.Microsecond, 5 * time.Millisecond, 30 * time.Second,
	}
	var logA, logB []time.Duration
	a, b := NewSimulator(1), NewSimulator(1)
	evA := NewEvent(func() { logA = append(logA, a.Now()) })
	var evB *Event
	fireB := func() { logB = append(logB, b.Now()) }
	// Background events keep both schedules busy around the timer.
	for i := 0; i < 8; i++ {
		d := time.Duration(i+1) * 700 * time.Microsecond
		a.Schedule(d, func() {})
		b.Schedule(d, func() {})
	}
	check := func(step string) {
		t.Helper()
		if a.Pending() != b.Pending() || a.PeakPending() != b.PeakPending() ||
			a.Scheduled() != b.Scheduled() || a.Executed() != b.Executed() {
			t.Fatalf("%s: Rearm side Pending/Peak/Scheduled/Executed = %d/%d/%d/%d, Cancel+Schedule side %d/%d/%d/%d",
				step, a.Pending(), a.PeakPending(), a.Scheduled(), a.Executed(),
				b.Pending(), b.PeakPending(), b.Scheduled(), b.Executed())
		}
	}
	for round := 0; round < 3; round++ {
		for _, d := range delays {
			a.Rearm(evA, d)
			b.Cancel(evB)
			evB = b.Schedule(d, fireB)
			check("rearm")
		}
		a.Cancel(evA)
		b.Cancel(evB)
		check("cancel")
		a.Rearm(evA, time.Millisecond)
		evB = b.Schedule(time.Millisecond, fireB)
		check("rearm after cancel")
		for i := 0; i < 4; i++ {
			a.Step()
			b.Step()
			check("step")
		}
	}
	if err := a.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := b.Run(time.Hour); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check("drain")
	if len(logA) == 0 || len(logA) != len(logB) {
		t.Fatalf("Rearm side fired at %v, Cancel+Schedule side at %v", logA, logB)
	}
	for i := range logA {
		if logA[i] != logB[i] {
			t.Fatalf("Rearm side fired at %v, Cancel+Schedule side at %v", logA, logB)
		}
	}
}

// TestWheelDropsSupersededEntries checks that the wheel reclaims the
// entry a Rearm superseded at promotion, as it does a cancelled one,
// instead of paying a heap insertion for it.
func TestWheelDropsSupersededEntries(t *testing.T) {
	sim := NewSimulator(1)
	ev := sim.Schedule(3*time.Second, func() {})
	sim.Rearm(ev, 4*time.Second)
	dropped := 0
	for len(sim.heap.a) == 0 {
		dropped += sim.wheel.promote(&sim.heap)
	}
	if top := sim.heap.a[0]; top.time != 4*time.Second || top.seq != ev.seq {
		t.Fatalf("first promoted entry is (%v, seq %d), want the live one (4s, seq %d)", top.time, top.seq, ev.seq)
	}
	if dropped != 1 {
		t.Fatalf("promotion reclaimed %d tombstones, want 1", dropped)
	}
}
