package surface

import (
	"fmt"
	"slices"
	"testing"

	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
)

// refBuildCircuit is the historical one-op-per-qubit extraction circuit,
// kept verbatim (its two basis helpers became refOtherCount and
// refOtherAncilla) as the reference buildCircuit's multi-target layers
// must reproduce: the same ops in the same order once every multi-target
// op is split into single-target ops.
func refBuildCircuit(e *Experiment) *stabsim.Circuit {
	p := e.Params
	c := stabsim.NewCircuit(e.totalQubits())

	isZ := p.Basis == 'Z'
	var basisPlaq [][]int
	var basisAncilla func(int) int
	if isZ {
		basisPlaq = e.layout.ZPlaquettes
		basisAncilla = e.zAncilla
	} else {
		basisPlaq = e.layout.XPlaquettes
		basisAncilla = e.xAncilla
	}

	dataAll := make([]int, e.code.N)
	for i := range dataAll {
		dataAll[i] = i
	}
	if !isZ {
		c.H(dataAll...) // |+…+⟩ initialization
	}

	mFlip := p.measFlipProbability()
	idleDataX, idleDataY, idleDataZ := stabsim.IdlePauliChannel(p.RoundDuration(), p.TcdMicros, p.dataT2())
	gateWindow := 4*p.GateTime + 2*p.HTime
	idleAncX, idleAncY, idleAncZ := stabsim.IdlePauliChannel(gateWindow, p.TcaMicros, p.ancillaT2())

	numBasis := len(basisPlaq)
	for r := 0; r < p.Rounds; r++ {
		// Ancilla idle noise over the gate window.
		for i := range e.layout.XPlaquettes {
			c.PauliChannel1(idleAncX, idleAncY, idleAncZ, e.xAncilla(i))
		}
		for i := range e.layout.ZPlaquettes {
			c.PauliChannel1(idleAncX, idleAncY, idleAncZ, e.zAncilla(i))
		}
		// X stabilizers: H, CXs ancilla→data, H.
		for i := range e.layout.XPlaquettes {
			c.H(e.xAncilla(i))
		}
		for i, plq := range e.layout.XPlaquettes {
			for _, q := range plq {
				c.CX(e.xAncilla(i), q)
				c.Depolarize2(p.P2, e.xAncilla(i), q)
			}
		}
		for i := range e.layout.XPlaquettes {
			c.H(e.xAncilla(i))
		}
		// Z stabilizers: CXs data→ancilla.
		for i, plq := range e.layout.ZPlaquettes {
			for _, q := range plq {
				c.CX(q, e.zAncilla(i))
				c.Depolarize2(p.P2, q, e.zAncilla(i))
			}
		}
		// Data idle noise for the full cycle.
		for _, q := range dataAll {
			c.PauliChannel1(idleDataX, idleDataY, idleDataZ, q)
		}
		// Measure-and-reset all ancillas: basis-type first so relative
		// record offsets are uniform.
		for i := 0; i < numBasis; i++ {
			c.MR(mFlip, basisAncilla(i))
		}
		for i := 0; i < refOtherCount(e); i++ {
			c.MR(mFlip, refOtherAncilla(e, i))
		}
		// Detectors on the basis-type stabilizers.
		total := numBasis + refOtherCount(e)
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
	// Closing detectors: plaquette data parity vs last ancilla outcome.
	total := numBasis + refOtherCount(e)
	for i, plq := range basisPlaq {
		recs := make([]int, 0, len(plq)+1)
		for _, q := range plq {
			recs = append(recs, -(e.code.N - q))
		}
		recs = append(recs, -(e.code.N + total - i))
		c.Detector(recs...)
	}
	// Logical observable: top row (Z) or left column (X).
	logical := e.code.LogicalZ
	if !isZ {
		logical = e.code.LogicalX
	}
	var obsRecs []int
	for _, q := range qec.Support(logical) {
		obsRecs = append(obsRecs, -(e.code.N - q))
	}
	c.Observable(0, obsRecs...)
	return c
}

func refOtherCount(e *Experiment) int {
	if e.Params.Basis == 'Z' {
		return len(e.layout.XPlaquettes)
	}
	return len(e.layout.ZPlaquettes)
}

func refOtherAncilla(e *Experiment, i int) int {
	if e.Params.Basis == 'Z' {
		return e.xAncilla(i)
	}
	return e.zAncilla(i)
}

// singleTargetOps splits every multi-target op into one op per target (per
// pair for two-qubit codes) with the same code and args; annotations are
// kept whole.
func singleTargetOps(c *stabsim.Circuit) []stabsim.Op {
	var out []stabsim.Op
	for _, op := range c.Ops {
		width := 1
		switch op.Code {
		case stabsim.OpCX, stabsim.OpCZ, stabsim.OpSwap, stabsim.OpDepolarize2:
			width = 2
		case stabsim.OpDetector, stabsim.OpObservable, stabsim.OpTick:
			out = append(out, op)
			continue
		}
		for t := 0; t < len(op.Targets); t += width {
			split := op
			split.Targets = op.Targets[t : t+width]
			out = append(out, split)
		}
	}
	return out
}

// emissionCases are the parameter sets the emission tests cover: several
// distances in both bases, plus asymmetric data/ancilla coherence with a
// separate data dephasing time.
func emissionCases() []Params {
	var ps []Params
	for _, d := range []int{2, 3, 5, 13} {
		for _, basis := range []byte{'Z', 'X'} {
			p := DefaultParams(d)
			p.Basis = basis
			ps = append(ps, p)
			q := p
			q.TcdMicros, q.TcaMicros, q.TcdT2Micros = 350, 60, 90
			ps = append(ps, q)
		}
	}
	return ps
}

func caseName(p Params) string {
	return fmt.Sprintf("d=%d/%c/Tcd=%g/Tca=%g/T2=%g", p.Distance, p.Basis, p.TcdMicros, p.TcaMicros, p.TcdT2Micros)
}

// TestEmissionMatchesPerQubitReference pins the multi-target circuit to
// the historical per-qubit one op for op. The op stream comparison is the
// strict check: a frame sampler cannot see a dropped leading data H in the
// X basis, because frames start at zero.
func TestEmissionMatchesPerQubitReference(t *testing.T) {
	for _, p := range emissionCases() {
		t.Run(caseName(p), func(t *testing.T) {
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			ref := refBuildCircuit(e)
			got, want := singleTargetOps(e.Circuit), singleTargetOps(ref)
			if len(got) != len(want) {
				t.Fatalf("%d single-target ops, reference %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Code != w.Code || g.Index != w.Index ||
					!slices.Equal(g.Targets, w.Targets) || !slices.Equal(g.Args, w.Args) || !slices.Equal(g.Recs, w.Recs) {
					t.Fatalf("op %d: got %+v, reference %+v", i, g, w)
				}
			}
			if e.Circuit.NumMeasurements() != ref.NumMeasurements() ||
				e.Circuit.NumDetectors() != ref.NumDetectors() ||
				e.Circuit.NumObservables() != ref.NumObservables() {
				t.Fatalf("counts (meas, det, obs) = (%d, %d, %d), reference (%d, %d, %d)",
					e.Circuit.NumMeasurements(), e.Circuit.NumDetectors(), e.Circuit.NumObservables(),
					ref.NumMeasurements(), ref.NumDetectors(), ref.NumObservables())
			}
		})
	}
}

// TestEmissionSamplesBitIdentical checks that the batch frame sampler draws
// the same detector and observable words from the multi-target circuit as
// from the per-qubit reference, batch for batch.
func TestEmissionSamplesBitIdentical(t *testing.T) {
	const batches = 64
	for _, p := range emissionCases() {
		t.Run(caseName(p), func(t *testing.T) {
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			ref := refBuildCircuit(e)
			for _, seed := range []int64{1, 20231028} {
				gotRNG, wantRNG := splitmix.New(seed), splitmix.New(seed)
				gs := stabsim.NewBatchFrameSampler(e.Circuit, gotRNG)
				ws := stabsim.NewBatchFrameSampler(ref, wantRNG)
				for b := 0; b < batches; b++ {
					g, w := gs.SampleBatch(), ws.SampleBatch()
					if !slices.Equal(g.Detectors, w.Detectors) || !slices.Equal(g.Observables, w.Observables) {
						t.Fatalf("seed %d batch %d: sampled words differ from the reference", seed, b)
					}
				}
			}
		})
	}
}

// TestConstructionSizedExactly is the machine-independent construction
// gate: the op list and the edge list are each allocated once at their
// final size.
func TestConstructionSizedExactly(t *testing.T) {
	for d := 3; d <= 13; d++ {
		for _, basis := range []byte{'Z', 'X'} {
			p := DefaultParams(d)
			p.Basis = basis
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			if ops := e.Circuit.Ops; cap(ops) != len(ops) {
				t.Errorf("d=%d %c: cap(Ops)=%d, len(Ops)=%d", d, basis, cap(ops), len(ops))
			}
			if edges := e.Graph.Edges; cap(edges) != len(edges) {
				t.Errorf("d=%d %c: cap(Edges)=%d, len(Edges)=%d", d, basis, cap(edges), len(edges))
			}
		}
	}
	// Zero-probability channels emit no op; the count must follow.
	p := DefaultParams(5)
	p.P2 = 0
	p.HTime, p.GateTime, p.ReadoutTime = 0, 0, 0
	e, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if ops := e.Circuit.Ops; cap(ops) != len(ops) {
		t.Errorf("noiseless: cap(Ops)=%d, len(Ops)=%d", cap(ops), len(ops))
	}
}

// TestNewAllocations bounds the allocations of a d=13 construction. The
// per-qubit circuit made 6,173; most of what remains is qec.Surface.
func TestNewAllocations(t *testing.T) {
	const limit = 2000
	avg := testing.AllocsPerRun(5, func() {
		if _, err := New(DefaultParams(13)); err != nil {
			t.Fatal(err)
		}
	})
	if avg > limit {
		t.Fatalf("New(d=13) allocates %.0f objects, want <= %d", avg, limit)
	}
}
