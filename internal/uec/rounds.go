package uec

import (
	"context"
	"fmt"
	"math"

	"hetarch/internal/stabsim"
)

// Multi-round memory experiment: the UEC module's actual job is to keep a
// logical qubit alive over many serialized QEC cycles. MemoryExperiment
// extends the single-cycle experiment to R noisy cycles with per-cycle
// detectors and sequential lookup decoding, closed by the standard
// noiseless verification cycle. The single-cycle Experiment is its R = 1
// case: the same builder emits both circuits and the same runner decodes
// them.
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
	m.circuit, _ = e.serializedCircuit(rounds)
	return m, nil
}

// RunContext samples the experiment and decodes each shot, counting shots
// where the accumulated correction disagrees with the true observable flip.
// It runs on the same bit-parallel sampler and mc engine as
// Experiment.RunContext, with the same guarantees: pooled (shots, errors)
// are bit-identical for any worker count; cancellation returns the exact
// pooled tally of the completed shards alongside a *mc.PartialError; a
// checkpoint scope (mc.WithCheckpoint) makes the run resumable without
// re-executing completed shards.
func (m *MemoryExperiment) RunContext(ctx context.Context, shots int, seed int64, workers int) (Result, error) {
	return m.E.run(ctx, m.circuit, m.Rounds, shots, seed, workers)
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
