package stabsim

import (
	"math/rand"

	"hetarch/internal/pauli"
)

// TableauRunner executes circuits exactly on an Aaronson–Gottesman tableau,
// sampling noise channels as explicit Pauli injections and performing real
// projective measurements. It is the exact reference the BatchFrameSampler
// is validated against, and it executes circuits whose detectors are not
// yet known to satisfy the determinism contract.
type TableauRunner struct {
	c   *Circuit
	rng *rand.Rand

	// reference detector/observable parities from a noiseless execution
	refDet []bool
	refObs []bool
	hasRef bool
}

// NewTableauRunner prepares an exact runner for the circuit.
func NewTableauRunner(c *Circuit, rng *rand.Rand) *TableauRunner {
	return &TableauRunner{c: c, rng: rng}
}

// RunOnce executes the circuit once (with noise if noisy is true) and
// returns the raw measurement record and the parities of each detector and
// observable over the *actual outcomes* (not yet normalized against the
// noiseless reference).
func (t *TableauRunner) RunOnce(noisy bool) (meas []bool, detPar []bool, obsPar []bool) {
	tb := pauli.NewTableau(t.c.N)
	meas = make([]bool, 0, t.c.numMeasurements)
	detPar = make([]bool, 0, t.c.numDetectors)
	obsPar = make([]bool, t.c.numObservables)
	for i := range t.c.Ops {
		op := &t.c.Ops[i]
		switch op.Code {
		case OpH:
			for _, q := range op.Targets {
				tb.H(q)
			}
		case OpS:
			for _, q := range op.Targets {
				tb.S(q)
			}
		case OpSDag:
			for _, q := range op.Targets {
				tb.SDag(q)
			}
		case OpX:
			for _, q := range op.Targets {
				tb.X(q)
			}
		case OpY:
			for _, q := range op.Targets {
				tb.Y(q)
			}
		case OpZ:
			for _, q := range op.Targets {
				tb.Z(q)
			}
		case OpCX:
			for j := 0; j < len(op.Targets); j += 2 {
				tb.CX(op.Targets[j], op.Targets[j+1])
			}
		case OpCZ:
			for j := 0; j < len(op.Targets); j += 2 {
				tb.CZ(op.Targets[j], op.Targets[j+1])
			}
		case OpSwap:
			for j := 0; j < len(op.Targets); j += 2 {
				tb.SWAP(op.Targets[j], op.Targets[j+1])
			}
		case OpM, OpMR:
			p := op.Args[0]
			for _, q := range op.Targets {
				raw, _ := tb.MeasureZ(q, t.rng)
				rec := raw
				if noisy && p > 0 && t.rng.Float64() < p {
					rec ^= 1 // classical readout flip: recorded, not physical
				}
				meas = append(meas, rec == 1)
				if op.Code == OpMR && raw == 1 {
					tb.X(q)
				}
			}
		case OpR:
			for _, q := range op.Targets {
				tb.Reset(q, t.rng)
			}
		case OpDepolarize1:
			if !noisy {
				continue
			}
			for _, q := range op.Targets {
				if t.rng.Float64() < op.Args[0] {
					switch t.rng.Intn(3) {
					case 0:
						tb.X(q)
					case 1:
						tb.Y(q)
					default:
						tb.Z(q)
					}
				}
			}
		case OpDepolarize2:
			if !noisy {
				continue
			}
			for j := 0; j < len(op.Targets); j += 2 {
				if t.rng.Float64() < op.Args[0] {
					k := 1 + t.rng.Intn(15)
					applyPauliCodeTableau(tb, op.Targets[j], k&3)
					applyPauliCodeTableau(tb, op.Targets[j+1], k>>2)
				}
			}
		case OpXError:
			if !noisy {
				continue
			}
			for _, q := range op.Targets {
				if t.rng.Float64() < op.Args[0] {
					tb.X(q)
				}
			}
		case OpYError:
			if !noisy {
				continue
			}
			for _, q := range op.Targets {
				if t.rng.Float64() < op.Args[0] {
					tb.Y(q)
				}
			}
		case OpZError:
			if !noisy {
				continue
			}
			for _, q := range op.Targets {
				if t.rng.Float64() < op.Args[0] {
					tb.Z(q)
				}
			}
		case OpPauliChannel1:
			if !noisy {
				continue
			}
			px, py, pz := op.Args[0], op.Args[1], op.Args[2]
			for _, q := range op.Targets {
				u := t.rng.Float64()
				switch {
				case u < px:
					tb.X(q)
				case u < px+py:
					tb.Y(q)
				case u < px+py+pz:
					tb.Z(q)
				}
			}
		case OpDetector:
			v := false
			for _, r := range op.Recs {
				if meas[len(meas)+r] {
					v = !v
				}
			}
			detPar = append(detPar, v)
		case OpObservable:
			for _, r := range op.Recs {
				if meas[len(meas)+r] {
					obsPar[op.Index] = !obsPar[op.Index]
				}
			}
		case OpTick:
		}
	}
	return meas, detPar, obsPar
}

func applyPauliCodeTableau(tb *pauli.Tableau, q, code int) {
	switch code {
	case 1:
		tb.X(q)
	case 2:
		tb.Y(q)
	case 3:
		tb.Z(q)
	}
}

// computeReference runs the circuit noiselessly once and records detector
// and observable parities. Under the detector contract these parities are
// shot-independent.
func (t *TableauRunner) computeReference() {
	_, det, obs := t.RunOnce(false)
	t.refDet = det
	t.refObs = obs
	t.hasRef = true
}

// ShotResult carries one shot's detector events and observable flips.
type ShotResult struct {
	Detectors   []bool
	Observables []bool
}

// Sample executes one noisy shot and returns detector events and observable
// flips normalized against the noiseless reference, directly comparable to
// one lane (bit) of a BatchFrameSampler batch.
func (t *TableauRunner) Sample() ShotResult {
	if !t.hasRef {
		t.computeReference()
	}
	_, det, obs := t.RunOnce(true)
	res := ShotResult{
		Detectors:   make([]bool, len(det)),
		Observables: make([]bool, len(obs)),
	}
	for i := range det {
		res.Detectors[i] = det[i] != t.refDet[i]
	}
	for i := range obs {
		res.Observables[i] = obs[i] != t.refObs[i]
	}
	return res
}

// VerifyDetectorsDeterministic runs the circuit noiselessly several times
// and reports whether every detector parity (and observable parity) is
// identical across runs — the precondition for frame sampling.
func (t *TableauRunner) VerifyDetectorsDeterministic(trials int) bool {
	if trials < 2 {
		trials = 2
	}
	_, det0, obs0 := t.RunOnce(false)
	for i := 1; i < trials; i++ {
		_, det, obs := t.RunOnce(false)
		for j := range det {
			if det[j] != det0[j] {
				return false
			}
		}
		for j := range obs {
			if obs[j] != obs0[j] {
				return false
			}
		}
	}
	return true
}
