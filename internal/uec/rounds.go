package uec

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/stabsim"
)

// Memory-experiment telemetry: shots tick individually (each shot replays
// the full R-round circuit, so the add is invisible); rounds count the
// decoded noisy-plus-verification cycles.
var (
	memShots  = obs.C("uec.memory.shots")
	memErrors = obs.C("uec.memory.logical_errors")
	memRounds = obs.C("uec.memory.rounds")
)

// Multi-round memory experiment: the UEC module's actual job is to keep a
// logical qubit alive over many serialized QEC cycles. MemoryExperiment
// extends the single-cycle experiment to R noisy cycles with per-cycle
// detectors and sequential lookup decoding, closed by the standard
// noiseless verification cycle.
//
// Decoding is the sequential small-code scheme: after each noisy cycle the
// syndrome difference relative to the running correction is lookup-decoded
// and folded into the accumulated correction; the final ideal cycle settles
// the residual. Logical failure is judged against the true observable flip.
type MemoryExperiment struct {
	E      *Experiment
	Rounds int

	circuit *stabsim.Circuit
}

// NewMemory compiles an R-round serialized memory experiment for the code.
// Only the heterogeneous (serialized) architecture supports multi-round
// compilation here; the homogeneous baseline uses the single-cycle
// Experiment.
func NewMemory(p Params, rounds int) (*MemoryExperiment, error) {
	if rounds < 1 {
		rounds = 1
	}
	if !p.Heterogeneous {
		return nil, fmt.Errorf("uec: multi-round memory supports the serialized (heterogeneous) module; use Experiment for the lattice baseline")
	}
	e, err := New(p)
	if err != nil {
		return nil, err
	}
	m := &MemoryExperiment{E: e, Rounds: rounds}
	m.buildCircuit()
	return m, nil
}

// buildCircuit emits R noisy serialized cycles followed by one noiseless
// verification cycle and the transversal readout — the R-round
// generalization of buildSerializedCircuit, sharing its noise attribution.
func (m *MemoryExperiment) buildCircuit() {
	p := m.E.P
	n := p.Code.N
	anc := n
	c := stabsim.NewCircuit(n + 1)

	basis, other := p.basisStabs()
	dataAll := seq(n)
	if p.Basis == 'X' {
		c.H(dataAll...)
	}
	mFlip := (1 - math.Exp(-p.ReadoutTime/p.TcMicros)) / 2

	touches := make([]int, n)
	for _, s := range basis {
		for _, q := range s {
			touches[q]++
		}
	}
	for _, s := range other {
		for _, q := range s {
			touches[q]++
		}
	}

	gateMarginal := p.P2 * 12.0 / 15.0
	idleX, idleY, idleZ := stabsim.IdlePauliChannel(m.E.CycleDuration, p.TsMicros, p.TsMicros)
	if !p.Heterogeneous {
		idleX, idleY, idleZ = stabsim.IdlePauliChannel(m.E.CycleDuration, p.TcMicros, p.TcMicros)
	}
	cwX, cwY, cwZ := stabsim.IdlePauliChannel(2*p.SwapTime+p.GateTime, p.TcMicros, p.TcMicros)

	emitNoise := func() {
		for q := 0; q < n; q++ {
			c.PauliChannel1(idleX, idleY, idleZ, q)
			for t := 0; t < touches[q]; t++ {
				c.Depolarize1(p.SwapError, q)
				c.Depolarize1(gateMarginal, q)
				c.Depolarize1(p.SwapError, q)
				c.PauliChannel1(cwX, cwY, cwZ, q)
			}
		}
	}
	emitCheck := func(support []int, isX bool, flip float64, det bool) {
		if isX {
			c.H(anc)
		}
		for _, q := range support {
			if isX {
				c.CX(anc, q)
			} else {
				c.CX(q, anc)
			}
		}
		if isX {
			c.H(anc)
		}
		c.MR(flip, anc)
		if det {
			c.Detector(-1)
		}
	}
	ancillaFlip := func(w int) float64 {
		f := mFlip
		for i := 0; i < w; i++ {
			f = 1 - (1-f)*(1-p.P2*8.0/15.0)
		}
		return f
	}

	for r := 0; r < m.Rounds; r++ {
		emitNoise()
		for _, s := range basis {
			emitCheck(s, p.Basis == 'X', ancillaFlip(len(s)), true)
		}
		for _, s := range other {
			emitCheck(s, p.Basis != 'X', ancillaFlip(len(s)), false)
		}
	}
	// Noiseless verification cycle.
	for _, s := range basis {
		emitCheck(s, p.Basis == 'X', 0, true)
	}
	if p.Basis == 'X' {
		c.H(dataAll...)
	}
	c.M(dataAll...)
	var obsRecs []int
	for q := 0; q < n; q++ {
		if m.E.logicalMask>>uint(q)&1 == 1 {
			obsRecs = append(obsRecs, -(n - q))
		}
	}
	c.Observable(0, obsRecs...)
	m.circuit = c
}

// RunContext samples the experiment and decodes each shot, counting shots
// where the accumulated correction disagrees with the true observable flip.
// The shot budget is distributed across worker goroutines via the mc engine;
// each worker owns its scalar frame sampler (one shot here replays the full
// R-round circuit, so scalar sampling is the right granularity). Pooled
// (shots, errors) are bit-identical for any worker count.
//
// Cancellation stops dispatching new shards and returns the exact pooled
// tally of the completed shards alongside a *mc.PartialError; a checkpoint
// scope (mc.WithCheckpoint) makes the run resumable without re-executing
// completed shards.
func (m *MemoryExperiment) RunContext(ctx context.Context, shots int, seed int64, workers int) (Result, error) {
	k := m.E.numChecks
	cfg := mc.Config{Shots: shots, Seed: seed, Workers: workers}
	tally, err := mc.RunContext(ctx, cfg, func() mc.ShardRunner {
		rng := mc.NewRand(0)
		fs := stabsim.NewFrameSampler(m.circuit, rng)
		return func(sh mc.Shard) mc.Tally {
			rng.Seed(sh.Seed)
			var t mc.Tally
			for s := 0; s < sh.Shots; s++ {
				shot := fs.Sample()
				var correction uint64
				for r := 0; r <= m.Rounds; r++ { // R noisy rounds + verification
					var syn uint64
					for i := 0; i < k; i++ {
						if shot.Detectors[r*k+i] {
							syn |= 1 << uint(i)
						}
					}
					resid := syn ^ m.E.lookup.Syndrome(correction)
					correction ^= m.E.lookup.Decode(resid)
				}
				predicted := bits.OnesCount64(correction&m.E.logicalMask)%2 == 1
				if predicted != shot.Observables[0] {
					t.Errors++
				}
			}
			t.Shots = int64(sh.Shots)
			memShots.Add(t.Shots)
			memRounds.Add(t.Shots * int64(m.Rounds+1))
			memErrors.Add(t.Errors)
			return t
		}
	})
	return Result{Shots: int(tally.Shots), LogicalErrors: int(tally.Errors)}, err
}

// PerRoundErrorRate converts the per-shot failure probability to a
// per-round rate with the (1−2ε) compounding convention.
func (m *MemoryExperiment) PerRoundErrorRate(r Result) float64 {
	eps := r.LogicalErrorRate()
	if eps >= 0.5 {
		return 0.5
	}
	return (1 - math.Pow(1-2*eps, 1/float64(m.Rounds))) / 2
}
