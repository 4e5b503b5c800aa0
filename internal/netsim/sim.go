// Package netsim simulates residential broadband access networks at two
// granularities:
//
//   - a packet-level discrete-event simulator (access link with a drop-tail
//     queue, random and bursty loss, propagation delay) driving a simplified
//     TCP Reno sender — used to produce NDT-style measurements of capacity,
//     latency and packet loss exactly the way the paper's Dasu clients
//     measured real lines; and
//   - a flow-level fluid simulator (processor sharing with per-flow rate
//     caps) — used for the multi-week usage horizons behind the byte-counter
//     datasets, where packet-level simulation would be computationally
//     absurd (23 months × 53k users).
//
// Both operate in virtual time; nothing in this package reads the wall
// clock, so every simulation is deterministic given its random source.
package netsim

import "math"

// Simulator is a discrete-event scheduler with a virtual clock. The zero
// value is ready to use; time starts at 0 and is measured in seconds.
// Events are kept in a calendar queue (see calqueue.go) with O(1)
// amortized schedule and pop.
type Simulator struct {
	now    float64
	queue  calendarQueue
	nextID int64
	halted bool
}

type event struct {
	at  float64
	id  int64 // tie-breaker preserving scheduling order at equal times
	run func()
}

// Now returns the current virtual time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (or at NaN) runs the event at the current time (FIFO among same-time
// events).
func (s *Simulator) At(t float64, fn func()) {
	if t < s.now || math.IsNaN(t) {
		t = s.now
	}
	s.nextID++
	s.queue.enqueue(event{at: t, id: s.nextID, run: fn})
}

// After schedules fn to run d seconds from now.
func (s *Simulator) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Halt stops the run loop after the currently executing event returns.
func (s *Simulator) Halt() { s.halted = true }

// Run executes events until the queue drains or Halt is called. It returns
// the final virtual time.
func (s *Simulator) Run() float64 {
	s.halted = false
	for !s.halted {
		e, ok := s.queue.pop()
		if !ok {
			break
		}
		s.now = e.at
		e.run()
	}
	return s.now
}

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued.
func (s *Simulator) RunUntil(t float64) float64 {
	s.halted = false
	for !s.halted {
		e, ok := s.queue.popAtMost(t)
		if !ok {
			break
		}
		s.now = e.at
		e.run()
	}
	if !s.halted && s.now < t {
		s.now = t
	}
	return s.now
}

// Pending returns the number of queued events (for tests and diagnostics).
func (s *Simulator) Pending() int { return s.queue.len() }
