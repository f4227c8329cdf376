package uec

import (
	"math/rand"
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

func TestMemorySingleRoundMatchesExperimentScale(t *testing.T) {
	// The 1-round memory experiment should be in the same ballpark as the
	// single-cycle Experiment (they differ slightly: the memory decoder is
	// sequential rather than two-stage).
	p := DefaultParams(qec.Steane(), 50, true)
	m, err := NewMemory(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	mr := mustRun(t, m, 10000, 9, 1).LogicalErrorRate()
	er := mustRun(t, e, 10000, 9, 1).LogicalErrorRate()
	if mr > 2.5*er+0.01 || er > 2.5*mr+0.01 {
		t.Fatalf("single-round memory %v vs experiment %v", mr, er)
	}
}
