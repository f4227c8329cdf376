package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hetarch/internal/obs"
)

func TestEventOrdering(t *testing.T) {
	var s Sim
	var order []int
	s.At(5, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(9, func() { order = append(order, 3) })
	s.RunUntil(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Now() != 100 {
		t.Fatalf("clock %v", s.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var s Sim
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { order = append(order, i) })
	}
	s.RunUntil(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var s Sim
	var times []float64
	s.At(1, func() {
		times = append(times, s.Now())
		s.After(2, func() { times = append(times, s.Now()) })
	})
	s.RunUntil(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times %v", times)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	var s Sim
	fired := false
	s.At(5, func() { fired = true })
	s.RunUntil(3)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if s.Now() != 3 {
		t.Fatal("clock should advance to horizon")
	}
	if s.Pending() != 1 {
		t.Fatal("event should remain queued")
	}
	s.RunUntil(10)
	if !fired {
		t.Fatal("event should fire on the next run")
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var s Sim
	if s.Step() {
		t.Fatal("Step on empty queue should return false")
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.RunUntil(6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.At(1, func() {})
}

func TestNaNTimePanics(t *testing.T) {
	for _, schedule := range []func(*Sim){
		func(s *Sim) { s.At(math.NaN(), func() {}) },
		func(s *Sim) { s.After(math.NaN(), func() {}) },
	} {
		var s Sim
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on a NaN time")
				}
			}()
			schedule(&s)
		}()
		if s.Pending() != 0 {
			t.Fatal("a NaN event reached the queue")
		}
	}
}

// TestRandomizedOrderMatchesStableSort: many events on a coarse time grid
// (so most share their time with others), scheduled in bursts between
// single Steps, dispatch in the order of a stable sort by time of
// everything scheduled — FIFO among ties, whatever the heap's shape.
func TestRandomizedOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		var s Sim
		type item struct {
			time float64
			id   int
		}
		var scheduled []item
		var fired []int
		next := 0
		for round := 0; round < 200; round++ {
			for k := rng.Intn(6); k > 0; k-- {
				it := item{time: s.Now() + float64(rng.Intn(4)), id: next}
				next++
				scheduled = append(scheduled, it)
				s.At(it.time, func() { fired = append(fired, it.id) })
			}
			s.Step()
		}
		for s.Step() {
		}
		sort.SliceStable(scheduled, func(i, j int) bool { return scheduled[i].time < scheduled[j].time })
		if len(fired) != len(scheduled) {
			t.Fatalf("trial %d: %d events fired, %d scheduled", trial, len(fired), len(scheduled))
		}
		for i := range fired {
			if fired[i] != scheduled[i].id {
				t.Fatalf("trial %d: dispatch %d was event %d, stable sort says %d", trial, i, fired[i], scheduled[i].id)
			}
		}
	}
}

// TestSteadyStateAllocatesNothing: once the queue has grown to its working
// depth, scheduling and dispatching an event allocates nothing.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var s Sim
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(float64(i%7), fn)
	}
	if a := testing.AllocsPerRun(1000, func() {
		s.After(3, fn)
		s.Step()
	}); a != 0 {
		t.Fatalf("At+Step allocates %v per event, want 0", a)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	var s Sim
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.After(-1, func() {})
}

func TestRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	var s Sim
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock %v, want 42", s.Now())
	}
	// Running backward-in-horizon must not rewind the clock.
	s.RunUntil(10)
	if s.Now() != 42 {
		t.Fatalf("clock rewound to %v", s.Now())
	}
}

func TestPendingAfterDrain(t *testing.T) {
	var s Sim
	for i := 0; i < 5; i++ {
		s.After(float64(i+1), func() {})
	}
	if s.Pending() != 5 {
		t.Fatalf("pending %d, want 5", s.Pending())
	}
	s.RunUntil(100)
	if s.Pending() != 0 {
		t.Fatalf("pending %d after drain, want 0", s.Pending())
	}
	if s.Step() {
		t.Fatal("Step after drain must report false")
	}
	// The drained simulator stays usable.
	fired := false
	s.After(1, func() { fired = true })
	s.RunUntil(s.Now() + 2)
	if !fired {
		t.Fatal("event after drain did not fire")
	}
}

func TestSchedulingAtCurrentTimeAllowed(t *testing.T) {
	var s Sim
	s.At(5, func() {})
	s.RunUntil(5)
	fired := false
	s.At(5, func() { fired = true }) // exactly now: not "the past"
	s.RunUntil(5)
	if !fired {
		t.Fatal("event at the current time must be runnable")
	}
}

func TestTelemetryCounters(t *testing.T) {
	events0 := obs.C("sched.events").Value()
	var s Sim
	for i := 0; i < 7; i++ {
		s.After(float64(i+1), func() {})
	}
	s.RunUntil(100)
	if d := obs.C("sched.events").Value() - events0; d != 7 {
		t.Fatalf("events delta %d, want 7", d)
	}
	if got := obs.G("sched.max_queue_depth").Value(); got < 7 {
		t.Fatalf("max queue depth %v, want >= 7", got)
	}
}
