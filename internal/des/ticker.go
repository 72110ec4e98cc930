package des

import "time"

// Ticker fires a callback at a fixed simulated-time period until stopped or
// the simulation drains. It is the simulation analogue of time.Ticker and is
// used by monitors (50ms sampling) and periodic fault injectors (30s log
// flush). One Event, bound to tick once, is re-armed for every period, so a
// running ticker allocates nothing.
type Ticker struct {
	sim    *Simulator
	period time.Duration
	fn     func(now time.Duration)
	ev     *Event
	stop   bool
}

// NewTicker schedules fn every period, first firing one period from now.
// Period must be positive.
func NewTicker(sim *Simulator, period time.Duration, fn func(now time.Duration)) *Ticker {
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.ev = NewEvent(t.tick)
	if period > 0 {
		sim.Rearm(t.ev, period)
	}
	return t
}

// Stop cancels all future firings. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stop = true
	t.sim.Cancel(t.ev)
}

// tick is the ticker event's callback: run fn, then re-arm for the next
// period unless fn stopped the ticker.
func (t *Ticker) tick() {
	if t.stop {
		return
	}
	t.fn(t.sim.Now())
	if !t.stop {
		t.sim.Rearm(t.ev, t.period)
	}
}
