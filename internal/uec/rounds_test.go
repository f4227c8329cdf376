package uec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hetarch/internal/qec"
	"hetarch/internal/stabsim"
)

func TestMemoryDetectorContract(t *testing.T) {
	for _, basis := range []byte{'Z', 'X'} {
		p := DefaultParams(qec.Steane(), 50, true)
		p.Basis = basis
		m, err := NewMemory(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr := stabsim.NewTableauRunner(m.circuit, rand.New(rand.NewSource(1)))
		if !tr.VerifyDetectorsDeterministic(3) {
			t.Fatalf("basis %c: nondeterministic detectors", basis)
		}
	}
}

func TestMemoryNoiselessPerfect(t *testing.T) {
	p := DefaultParams(qec.Steane(), 50, true)
	p.P2 = 0
	p.SwapError = 0
	p.TsMicros = 1e12
	p.TcMicros = 1e12
	m, err := NewMemory(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t, m, 300, 3, 1); res.LogicalErrors != 0 {
		t.Fatalf("%d errors without noise", res.LogicalErrors)
	}
}

func TestMemoryFailureGrowsWithRounds(t *testing.T) {
	p := DefaultParams(qec.Steane(), 50, true)
	run := func(rounds int) float64 {
		m, err := NewMemory(p, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, m, 6000, 5, 1).LogicalErrorRate()
	}
	one := run(1)
	five := run(5)
	if five <= one {
		t.Fatalf("5 rounds (%v) should fail more than 1 round (%v)", five, one)
	}
}

func TestMemoryPerRoundRateStable(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	// The per-round rate should be roughly round-count independent.
	p := DefaultParams(qec.Steane(), 50, true)
	rate := func(rounds int) float64 {
		m, err := NewMemory(p, rounds)
		if err != nil {
			t.Fatal(err)
		}
		return m.PerRoundErrorRate(mustRun(t, m, 8000, 7, 1))
	}
	r2 := rate(2)
	r6 := rate(6)
	if r6 > 2*r2 || r2 > 2*r6 {
		t.Fatalf("per-round rates diverge: %v (2 rounds) vs %v (6 rounds)", r2, r6)
	}
}

// TestMemorySingleRoundEqualsExperiment pins the unification exactly: the
// single-cycle Experiment is the R = 1 memory experiment — the same circuit,
// op for op, decoded by the same runner — so both return the same
// (Shots, LogicalErrors) for every code, basis, schedule and flag setting
// at any worker count.
func TestMemorySingleRoundEqualsExperiment(t *testing.T) {
	const shots, seed = 1000, 9
	for name, code := range codes(t) {
		for _, basis := range []byte{'Z', 'X'} {
			for _, opt := range []bool{false, true} {
				for _, flagged := range []bool{false, true} {
					p := DefaultParams(code, 50, true)
					p.Basis, p.OptimizedSchedule, p.Flagged = basis, opt, flagged
					label := fmt.Sprintf("%s basis=%c opt=%v flagged=%v", name, basis, opt, flagged)
					e, err := New(p)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					m, err := NewMemory(p, 1)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if !reflect.DeepEqual(m.circuit.Ops, e.Circuit.Ops) {
						t.Fatalf("%s: one-round memory circuit differs from the experiment's", label)
					}
					for _, workers := range []int{1, 2} {
						want := mustRun(t, e, shots, seed, workers)
						got := mustRun(t, m, shots, seed, workers)
						if got != want {
							t.Errorf("%s workers=%d: memory %+v != experiment %+v", label, workers, got, want)
						}
						if want.LogicalErrors == 0 {
							t.Errorf("%s workers=%d: no logical errors, equality shows nothing", label, workers)
						}
					}
				}
			}
		}
	}
}
