// Package surface implements the planar surface-code memory experiment of
// Section 4.2.1: circuit-level Monte Carlo of a rotated surface code whose
// data and ancilla qubits have independent coherence times (T_CD, T_CA),
// decoded with a union–find decoder over the space–time matching graph.
//
// This reproduces Fig. 6 (logical error per cycle vs. data/ancilla coherence
// scaling at d=13) and Fig. 7 (distance sweep vs. the T_CD/T_CA ratio).
package surface

import (
	"fmt"
	"hetarch/internal/decoder"
	"hetarch/internal/qec"
	"hetarch/internal/stabsim"
	"math"
)

// Params configures one memory experiment.
type Params struct {
	Distance int
	Rounds   int // syndrome-extraction cycles (defaults to Distance)

	TcdMicros float64 // data-qubit T1 (and T2 unless TcdT2Micros is set)
	TcaMicros float64 // ancilla-qubit T1 (and T2 unless TcaT2Micros is set)

	// TcdT2Micros / TcaT2Micros optionally separate the dephasing times
	// from the relaxation times (0 means T2 = T1). This models real device
	// asymmetries such as the fluxonium's long T1 but short T2 (Table 1).
	TcdT2Micros float64
	TcaT2Micros float64

	P2          float64 // two-qubit gate depolarizing error (paper: 1%)
	GateTime    float64 // µs per CX slot (0.1)
	HTime       float64 // µs per Hadamard slot (0.04)
	ReadoutTime float64 // µs (1.0)

	// Basis selects the memory experiment: 'Z' measures the logical Z
	// observable (sensitive to X errors), 'X' the logical X observable.
	Basis byte
}

// DefaultParams returns the Section 4.2.1 baseline for a given distance:
// T_CD = T_CA = 0.1 ms, 1% two-qubit gates, 100 ns CX, 40 ns H, 1 µs
// readout, d rounds.
func DefaultParams(d int) Params {
	return Params{
		Distance:    d,
		Rounds:      d,
		TcdMicros:   100,
		TcaMicros:   100,
		P2:          0.01,
		GateTime:    0.1,
		HTime:       0.04,
		ReadoutTime: 1.0,
		Basis:       'Z',
	}
}

// Experiment bundles the compiled circuit, matching graph and decoder for a
// given parameter set; it can be sampled repeatedly.
type Experiment struct {
	Params  Params
	Circuit *stabsim.Circuit
	Graph   *decoder.Graph

	code   *qec.Code
	layout *qec.SurfaceLayout
	uf     *decoder.UnionFind
}

// RoundDuration returns the wall-clock duration of one extraction cycle.
func (p Params) RoundDuration() float64 {
	return 4*p.GateTime + 2*p.HTime + p.ReadoutTime
}

// dataT2 returns the effective data dephasing time.
func (p Params) dataT2() float64 {
	if p.TcdT2Micros > 0 {
		return p.TcdT2Micros
	}
	return p.TcdMicros
}

// ancillaT2 returns the effective ancilla dephasing time.
func (p Params) ancillaT2() float64 {
	if p.TcaT2Micros > 0 {
		return p.TcaT2Micros
	}
	return p.TcaMicros
}

// measFlipProbability models ancilla relaxation during its own readout as a
// classical recorded-outcome flip: about half of the T1 decays during the
// readout window corrupt the integrated signal.
func (p Params) measFlipProbability() float64 {
	return (1 - math.Exp(-p.ReadoutTime/p.TcaMicros)) / 2
}

// New builds the memory experiment: the noisy extraction circuit with
// detectors and observable, and the space–time union–find graph.
func New(p Params) (*Experiment, error) {
	if p.Distance < 2 {
		return nil, fmt.Errorf("surface: distance %d < 2", p.Distance)
	}
	if p.Rounds <= 0 {
		p.Rounds = p.Distance
	}
	if p.Basis != 'Z' && p.Basis != 'X' {
		return nil, fmt.Errorf("surface: basis must be 'Z' or 'X'")
	}
	code, layout := qec.Surface(p.Distance)
	e := &Experiment{Params: p, code: code, layout: layout}
	e.buildCircuit()
	e.buildGraph()
	e.uf = decoder.NewUnionFind(e.Graph)
	return e, nil
}

// qubit index layout: data 0..n-1 (row-major), then X ancillas, then Z
// ancillas.
func (e *Experiment) xAncilla(i int) int { return e.code.N + i }
func (e *Experiment) zAncilla(i int) int { return e.code.N + len(e.layout.XPlaquettes) + i }
func (e *Experiment) totalQubits() int {
	return e.code.N + len(e.layout.XPlaquettes) + len(e.layout.ZPlaquettes)
}

// buildCircuit emits the standard rotated-surface-code extraction cycle,
// repeated Rounds times, with circuit-level noise:
//
//   - two-qubit depolarizing P2 after every CX,
//   - Pauli-twirled idle noise on data for the full cycle duration (T_CD),
//   - idle noise on ancillas during the gate window (T_CA),
//   - classical measurement flips from ancilla relaxation during readout.
//
// Detectors compare consecutive outcomes of the basis-type stabilizers; the
// final transversal data measurement closes the detector chains and defines
// the logical observable.
//
// Every single-qubit layer (ancilla idle, the two X-ancilla H layers, data
// idle, ancilla measure-and-reset) is one multi-target op, as in Stim. The
// samplers draw per target in target order inside such an op, so the
// sampled bits equal those of one op per qubit in the same order. The op
// list is sized once from opCount.
func (e *Experiment) buildCircuit() {
	p := e.Params
	n, nx := e.code.N, len(e.layout.XPlaquettes)
	c := stabsim.NewCircuit(e.totalQubits())

	isZ := p.Basis == 'Z'
	basisPlaq := e.layout.XPlaquettes
	if isZ {
		basisPlaq = e.layout.ZPlaquettes
	}

	// qubits[i] = i: the data, X-ancilla and all-ancilla layers are
	// contiguous index ranges of it. The measure-and-reset layer lists the
	// basis-type ancillas first so relative record offsets are uniform; in
	// the X basis that is the ancilla range itself.
	qubits := make([]int, e.totalQubits())
	for i := range qubits {
		qubits[i] = i
	}
	dataAll, ancillas, xAncillas := qubits[:n], qubits[n:], qubits[n:n+nx]
	measured := ancillas
	if isZ {
		measured = append(append(make([]int, 0, len(ancillas)), qubits[n+nx:]...), xAncillas...)
	}

	mFlip := p.measFlipProbability()
	idleDataX, idleDataY, idleDataZ := stabsim.IdlePauliChannel(p.RoundDuration(), p.TcdMicros, p.dataT2())
	gateWindow := 4*p.GateTime + 2*p.HTime
	idleAncX, idleAncY, idleAncZ := stabsim.IdlePauliChannel(gateWindow, p.TcaMicros, p.ancillaT2())

	numBasis := len(basisPlaq)
	total := len(measured)
	c.Grow(e.opCount(numBasis, nonzero(idleAncX, idleAncY, idleAncZ), nonzero(idleDataX, idleDataY, idleDataZ)))
	if !isZ {
		c.H(dataAll...) // |+…+⟩ initialization
	}

	for r := 0; r < p.Rounds; r++ {
		// Ancilla idle noise over the gate window.
		c.PauliChannel1(idleAncX, idleAncY, idleAncZ, ancillas...)
		// X stabilizers: H, CXs ancilla→data, H.
		c.H(xAncillas...)
		for i, plq := range e.layout.XPlaquettes {
			for _, q := range plq {
				c.CX(e.xAncilla(i), q)
				c.Depolarize2(p.P2, e.xAncilla(i), q)
			}
		}
		c.H(xAncillas...)
		// Z stabilizers: CXs data→ancilla.
		for i, plq := range e.layout.ZPlaquettes {
			for _, q := range plq {
				c.CX(q, e.zAncilla(i))
				c.Depolarize2(p.P2, q, e.zAncilla(i))
			}
		}
		// Data idle noise for the full cycle.
		c.PauliChannel1(idleDataX, idleDataY, idleDataZ, dataAll...)
		c.MR(mFlip, measured...)
		// Detectors on the basis-type stabilizers.
		for i := 0; i < numBasis; i++ {
			recThis := -(total - i)
			if r == 0 {
				c.Detector(recThis)
			} else {
				c.Detector(recThis, recThis-total)
			}
		}
	}

	// Final transversal data measurement in the experiment basis.
	if !isZ {
		c.H(dataAll...)
	}
	c.M(dataAll...)
	// Closing detectors: plaquette data parity vs the final round's
	// basis-type ancilla outcome. Data records occupy the last n; before
	// them sits the final round's ancilla block, basis-type first.
	recs := make([]int, 0, 5)
	for i, plq := range basisPlaq {
		recs = recs[:0]
		for _, q := range plq {
			recs = append(recs, -(n - q))
		}
		recs = append(recs, -(n + total - i))
		c.Detector(recs...)
	}
	// Logical observable: top row (Z) or left column (X).
	logical := e.code.LogicalZ
	if !isZ {
		logical = e.code.LogicalX
	}
	support := qec.Support(logical)
	for i, q := range support {
		support[i] = -(n - q)
	}
	c.Observable(0, support...)

	e.Circuit = c
}

// nonzero reports whether a Pauli channel has any error weight, the
// condition under which PauliChannel1 emits an op.
func nonzero(px, py, pz float64) bool { return px > 0 || py > 0 || pz > 0 }

// opCount returns the exact number of ops buildCircuit emits: per round
// the two idle layers (when their channels are nonzero), two H layers, one
// CX plus one DEPOLARIZE2 (when P2 > 0) per plaquette qubit, one MR and
// one detector per basis-type stabilizer; then the final M, the closing
// detectors and the observable, plus the two data H layers of the X basis.
func (e *Experiment) opCount(numBasis int, ancIdle, dataIdle bool) int {
	p := e.Params
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	cx := 0
	for _, plq := range e.layout.XPlaquettes {
		cx += len(plq)
	}
	for _, plq := range e.layout.ZPlaquettes {
		cx += len(plq)
	}
	perRound := b2i(ancIdle) + 2 + cx*(1+b2i(p.P2 > 0)) + b2i(dataIdle) + 1 + numBasis
	return p.Rounds*perRound + 1 + numBasis + 1 + 2*b2i(p.Basis == 'X')
}
