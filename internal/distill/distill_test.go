package distill

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hetarch/internal/cell"
	"hetarch/internal/device"
)

func TestWernerPair(t *testing.T) {
	p := NewWernerPair(0.9)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Fidelity()-0.9) > 1e-12 || math.Abs(p.Infidelity()-0.1) > 1e-12 {
		t.Fatal("fidelity accessors wrong")
	}
}

func TestWernerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWernerPair(1.5)
}

func TestDecohereMonotone(t *testing.T) {
	p := NewWernerPair(0.98)
	q := p.Decohere(10, 500, 500, 500, 500)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Fidelity() >= p.Fidelity() {
		t.Fatal("decoherence should reduce fidelity")
	}
	// Longer exposure decays further.
	r := p.Decohere(100, 500, 500, 500, 500)
	if r.Fidelity() >= q.Fidelity() {
		t.Fatal("longer idle should decay more")
	}
	// Longer-lived memory decays less.
	s := p.Decohere(10, 50000, 50000, 50000, 50000)
	if s.Fidelity() <= q.Fidelity() {
		t.Fatal("longer T should decay less")
	}
}

func TestDecohereApproachesMixed(t *testing.T) {
	p := NewWernerPair(1.0)
	q := p.Decohere(1e7, 100, 100, 100, 100)
	// Under the Pauli-twirled idle model the fully-decohered pair is the
	// maximally mixed state, fidelity 1/4 with every Bell state.
	if math.Abs(q.Fidelity()-0.25) > 1e-6 {
		t.Fatalf("asymptotic fidelity %v, want 0.25", q.Fidelity())
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecohereOneSided(t *testing.T) {
	p := NewWernerPair(0.99)
	both := p.Decohere(5, 500, 500, 500, 500)
	one := p.Decohere(5, 500, 500, -1, -1)
	if one.Fidelity() <= both.Fidelity() {
		t.Fatal("one-sided decoherence should be milder")
	}
}

func TestDEJMPSImprovesGoodPairs(t *testing.T) {
	a := NewWernerPair(0.9)
	out, pSucc := DEJMPS(a, a, 0)
	if pSucc <= 0.5 || pSucc > 1 {
		t.Fatalf("success probability %v", pSucc)
	}
	if out.Fidelity() <= 0.9 {
		t.Fatalf("DEJMPS should improve fidelity: %v", out.Fidelity())
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDEJMPSKnownWernerFormula(t *testing.T) {
	// For Werner inputs the DEJMPS/BBPSSW recurrence is
	// F' = (F² + e²) / (F² + 2Fe + 5e²), e = (1−F)/3.
	for _, f := range []float64{0.6, 0.75, 0.9, 0.99} {
		e := (1 - f) / 3
		want := (f*f + e*e) / (f*f + 2*f*e + 5*e*e)
		out, _ := DEJMPS(NewWernerPair(f), NewWernerPair(f), 0)
		if math.Abs(out.Fidelity()-want) > 1e-12 {
			t.Fatalf("F=%v: got %v want %v", f, out.Fidelity(), want)
		}
	}
}

func TestDEJMPSMatchesExactSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randPair := func() Pair {
		// random Bell-diagonal with dominant Φ+
		var p Pair
		p.P[0] = 0.5 + 0.5*rng.Float64()
		rest := 1 - p.P[0]
		a := rng.Float64()
		b := rng.Float64() * (1 - a)
		p.P[1] = rest * a
		p.P[2] = rest * b
		p.P[3] = rest * (1 - a - b)
		return p
	}
	for i := 0; i < 25; i++ {
		a, b := randPair(), randPair()
		closed, pc := DEJMPS(a, b, 0)
		exact, pe := DEJMPSExact(a, b)
		if math.Abs(pc-pe) > 1e-9 {
			t.Fatalf("case %d: success prob closed %v vs exact %v (a=%v b=%v)", i, pc, pe, a, b)
		}
		for k := 0; k < 4; k++ {
			if math.Abs(closed.P[k]-exact.P[k]) > 1e-9 {
				t.Fatalf("case %d coeff %d: closed %v vs exact %v (a=%v b=%v)", i, k, closed.P[k], exact.P[k], a, b)
			}
		}
	}
}

func TestDEJMPSGateErrorPenalty(t *testing.T) {
	a := NewWernerPair(0.95)
	clean, _ := DEJMPS(a, a, 0)
	noisy, _ := DEJMPS(a, a, 0.01)
	if noisy.Fidelity() >= clean.Fidelity() {
		t.Fatal("gate error should reduce output fidelity")
	}
	if clean.Fidelity()-noisy.Fidelity() > 0.03 {
		t.Fatal("1% gate error should cost ~1.5% fidelity, not more")
	}
}

func TestPropertyDEJMPSOutputsValidPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Pair {
			var p Pair
			total := 0.0
			for k := 0; k < 4; k++ {
				p.P[k] = rng.Float64()
				total += p.P[k]
			}
			for k := 0; k < 4; k++ {
				p.P[k] /= total
			}
			return p
		}
		a, b := mk(), mk()
		out, pSucc := DEJMPS(a, b, 0)
		if pSucc == 0 {
			return true
		}
		return out.Validate() == nil && pSucc > 0 && pSucc <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func baseConfig(het bool) Config {
	cfg := DefaultConfig(12.5, het)
	cfg.Seed = 11
	cfg.GenRateKHz = 1000
	return cfg
}

func TestModuleRunsAndDistills(t *testing.T) {
	cfg := baseConfig(true)
	cfg.ConsumeAtThreshold = true
	m := NewModule(cfg)
	stats := m.Run(20000) // 20 ms
	if stats.Generated == 0 || stats.Stored == 0 {
		t.Fatal("source produced nothing")
	}
	if stats.Attempts == 0 || stats.Successes == 0 {
		t.Fatal("no distillation activity")
	}
	if stats.Delivered == 0 {
		t.Fatal("heterogeneous module should deliver threshold pairs at 1 MHz generation")
	}
	if stats.DeliveredRatePerSecond() <= 0 {
		t.Fatal("rate accounting broken")
	}
}

func TestModuleHeterogeneousBeatsHomogeneous(t *testing.T) {
	horizon := 30000.0
	het := NewModule(withConsume(baseConfig(true))).Run(horizon)
	hom := NewModule(withConsume(baseConfig(false))).Run(horizon)
	if het.Delivered <= hom.Delivered {
		t.Fatalf("heterogeneous (%d) should outdeliver homogeneous (%d)", het.Delivered, hom.Delivered)
	}
}

func withConsume(c Config) Config {
	c.ConsumeAtThreshold = true
	return c
}

func TestModuleLowRateHomogeneousStarves(t *testing.T) {
	// At 100 kHz generation the homogeneous module (Tc = 0.5 ms) cannot
	// reach the 99.5% target — pairs decay between arrivals (paper Fig. 4).
	cfg := withConsume(baseConfig(false))
	cfg.GenRateKHz = 100
	stats := NewModule(cfg).Run(50000)
	// The heterogeneous system still delivers.
	cfgHet := withConsume(baseConfig(true))
	cfgHet.GenRateKHz = 100
	statsHet := NewModule(cfgHet).Run(50000)
	if statsHet.Delivered == 0 {
		t.Fatal("heterogeneous module should still deliver at 100 kHz")
	}
	// Homogeneous output at 100 kHz is essentially starved: only rare
	// arrival bursts ever reach the target (paper: "fails to distill any
	// pairs to threshold fidelity").
	if stats.Delivered*20 > statsHet.Delivered {
		t.Fatalf("homogeneous delivered %d vs heterogeneous %d at 100 kHz; expected <5%%",
			stats.Delivered, statsHet.Delivered)
	}
}

func TestModuleTraceRecorded(t *testing.T) {
	cfg := baseConfig(true)
	cfg.TraceInterval = 1
	m := NewModule(cfg)
	stats := m.Run(100)
	if len(stats.Trace) < 90 {
		t.Fatalf("trace has %d points", len(stats.Trace))
	}
	if stats.Trace[0].BestInfidelity != 1 {
		t.Fatal("trace should start with empty output register")
	}
}

func TestModulePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := baseConfig(true)
	cfg.InputSlots = 1
	NewModule(cfg)
}

func TestModuleDeterministicForSeed(t *testing.T) {
	a := NewModule(withConsume(baseConfig(true))).Run(5000)
	b := NewModule(withConsume(baseConfig(true))).Run(5000)
	if a.Delivered != b.Delivered || a.Generated != b.Generated || a.Attempts != b.Attempts {
		t.Fatal("same seed should reproduce identical runs")
	}
}

func TestTwirlPreservesFidelity(t *testing.T) {
	p := Pair{P: [4]float64{0.9, 0.06, 0.03, 0.01}}
	w := p.Twirl()
	if math.Abs(w.Fidelity()-0.9) > 1e-12 {
		t.Fatal("twirl changed fidelity")
	}
	if math.Abs(w.P[1]-w.P[2]) > 1e-12 || math.Abs(w.P[2]-w.P[3]) > 1e-12 {
		t.Fatal("twirl output not Werner")
	}
}

func TestBBPSSWImproves(t *testing.T) {
	a := NewWernerPair(0.85)
	out, ps := BBPSSW(a, a, 0)
	if out.Fidelity() <= 0.85 || ps <= 0.5 {
		t.Fatalf("BBPSSW failed: F=%v ps=%v", out.Fidelity(), ps)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDEJMPSBeatsBBPSSW(t *testing.T) {
	// From equal Werner inputs, one round ties (DEJMPS = BBPSSW on Werner
	// states), but iterated from the same budget DEJMPS pulls ahead because
	// its outputs concentrate instead of being re-twirled.
	start := NewWernerPair(0.9)
	d, b := start, start
	for round := 0; round < 3; round++ {
		d, _ = DEJMPS(d, d, 0)
		b, _ = BBPSSW(b, b, 0)
	}
	if d.Fidelity() <= b.Fidelity() {
		t.Fatalf("DEJMPS (%v) should beat BBPSSW (%v) after 3 rounds", d.Fidelity(), b.Fidelity())
	}
}

func TestBBPSSWMatchesDEJMPSOnFirstWernerRound(t *testing.T) {
	a := NewWernerPair(0.87)
	d, pd := DEJMPS(a, a, 0)
	b, pb := BBPSSW(a, a, 0)
	if math.Abs(pd-pb) > 1e-12 {
		t.Fatal("success probabilities should match for Werner inputs")
	}
	if math.Abs(d.Fidelity()-b.Fidelity()) > 1e-12 {
		t.Fatal("first-round fidelities should match for Werner inputs")
	}
}

func TestConfigFromCells(t *testing.T) {
	reg := cell.NewRegister(device.StandardStorage(12500, 10), device.StandardComputeNoReadout(500), 1)
	regChar, err := cell.CharacterizeRegister(reg)
	if err != nil {
		t.Fatal(err)
	}
	pc := cell.NewParCheck(device.StandardComputeNoReadout(500), device.StandardCompute(500))
	pcChar, err := cell.CharacterizeParCheck(pc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ConfigFromCells(regChar, pcChar, true)
	if cfg.SwapTime != 0.1 || cfg.GateTime != 0.1 || cfg.OneQTime != 0.04 || cfg.ReadoutTime != 1 {
		t.Fatalf("timings not propagated: %+v", cfg)
	}
	// Storage lifetime recovered within 20% of the true 12.5 ms.
	if cfg.TsMicros < 10000 || cfg.TsMicros > 15000 {
		t.Fatalf("recovered Ts = %v us, want ~12500", cfg.TsMicros)
	}
	if cfg.GateError <= 0 || cfg.GateError > 1e-3 {
		t.Fatalf("gate error %v out of coherence-limited band", cfg.GateError)
	}
	// The derived configuration runs end to end.
	cfg.Seed = 5
	cfg.ConsumeAtThreshold = true
	stats := NewModule(cfg).Run(5000)
	if stats.Delivered == 0 {
		t.Fatal("derived configuration should distill successfully")
	}
}

// TestModuleRunSteadyAllocs: the event loop allocates nothing per event, so
// a whole trajectory costs a fixed handful of allocations (the module, its
// slots and callbacks, and the queue and in-flight FIFO reaching their
// working size) no matter how long the horizon — four times the horizon
// means four times the events and not one allocation more.
func TestModuleRunSteadyAllocs(t *testing.T) {
	for _, het := range []bool{true, false} {
		cfg := withConsume(DefaultConfig(12.5, het))
		cfg.Seed = 11
		allocs := func(horizon float64) float64 {
			return testing.AllocsPerRun(5, func() { NewModule(cfg).Run(horizon) })
		}
		short, long := allocs(20000), allocs(80000)
		t.Logf("heterogeneous=%v: %v allocations over 20 ms, %v over 80 ms", het, short, long)
		if long > short || short > 20 {
			t.Errorf("heterogeneous=%v: %v allocations over 20 ms, %v over 80 ms; want a constant <= 20",
				het, short, long)
		}
	}
}

func TestModuleRunTwicePanics(t *testing.T) {
	for _, trace := range []float64{0, 1} {
		cfg := DefaultConfig(12.5, true)
		cfg.TraceInterval = trace
		m := NewModule(cfg)
		m.Run(100)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "distill: ") {
					t.Errorf("trace interval %v: second Run panicked with %q, want a distill: message", trace, msg)
				}
			}()
			m.Run(200)
		}()
	}
}
