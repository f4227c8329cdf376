// Package sched is a small deterministic discrete-event simulator used by
// the entanglement-distillation module, whose operation is driven by
// stochastic EP generation and must dynamically coordinate memory and
// distillation resources (Section 4.1 of the paper).
package sched

import (
	"time"

	"hetarch/internal/obs"
)

// Scheduler telemetry, aggregated across all Sim instances: total events
// dispatched, the deepest queue ever observed, cumulative virtual time
// advanced by RunUntil, and the wall time those drains took — together the
// virtual-vs-wall speed of the event-driven simulations.
var (
	schedEvents   = obs.C("sched.events")
	schedMaxDepth = obs.G("sched.max_queue_depth")
	schedVirtual  = obs.G("sched.virtual_time_us")
	schedWall     = obs.H("sched.run_wall_ns")
)

// event is one scheduled callback.
type event struct {
	time float64
	seq  int64 // tie-breaker: FIFO among equal times
	fn   func()
}

// before orders events by time, then by scheduling order. seq is unique,
// so this is a total order and the dispatch sequence does not depend on
// how the heap arranges equal-time events.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Sim is a discrete-event simulation clock. The zero value is ready to use.
// The queue is a binary min-heap of event values, so scheduling and
// dispatching allocate nothing once the queue has reached its working depth.
type Sim struct {
	now   float64
	seq   int64
	queue []event
}

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t (t must not be in the past, nor NaN).
func (s *Sim) At(t float64, fn func()) {
	if !(t >= s.now) { // false for NaN too, which would corrupt the order
		panic("sched: scheduling into the past")
	}
	s.seq++
	s.queue = append(s.queue, event{time: t, seq: s.seq, fn: fn})
	s.siftUp(len(s.queue) - 1)
	schedMaxDepth.SetMax(float64(len(s.queue)))
}

// After schedules fn d time units from now.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		panic("sched: negative delay")
	}
	s.At(s.now+d, fn)
}

// Step executes the next event; it reports false when the queue is empty.
func (s *Sim) Step() bool {
	n := len(s.queue)
	if n == 0 {
		return false
	}
	e := s.queue[0]
	last := s.queue[n-1]
	s.queue[n-1] = event{} // drop the closure reference
	s.queue = s.queue[:n-1]
	if n > 1 {
		s.siftDown(last)
	}
	s.now = e.time
	schedEvents.Inc()
	e.fn()
	return true
}

// siftUp moves the event at index j towards the root until its parent
// comes before it.
func (s *Sim) siftUp(j int) {
	q := s.queue
	e := q[j]
	for j > 0 {
		p := (j - 1) / 2
		if !e.before(&q[p]) {
			break
		}
		q[j] = q[p]
		j = p
	}
	q[j] = e
}

// siftDown places e, which replaces the root, where both its children come
// after it.
func (s *Sim) siftDown(e event) {
	q := s.queue
	n := len(q)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&e) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = e
}

// RunUntil executes events in order until the clock would pass t or the
// queue drains; the clock is left at min(t, last event time ≥ current).
func (s *Sim) RunUntil(t float64) {
	start := time.Now()
	before := s.now
	for len(s.queue) > 0 && s.queue[0].time <= t {
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
	schedVirtual.Add(s.now - before)
	schedWall.Observe(time.Since(start).Nanoseconds())
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return len(s.queue) }
