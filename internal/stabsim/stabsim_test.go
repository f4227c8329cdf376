package stabsim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"hetarch/internal/splitmix"
)

func TestCircuitBuilderCounts(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).M(0, 1).Detector(-1, -2).Observable(0, -1)
	if c.NumMeasurements() != 2 {
		t.Fatal("measurement count wrong")
	}
	if c.NumDetectors() != 1 {
		t.Fatal("detector count wrong")
	}
	if c.NumObservables() != 1 {
		t.Fatal("observable count wrong")
	}
}

func TestCircuitBuilderPanics(t *testing.T) {
	cases := []func(){
		func() { NewCircuit(0) },
		func() { NewCircuit(2).H(5) },
		func() { NewCircuit(2).CX(0) },
		func() { NewCircuit(2).CX(1, 1) },
		func() { NewCircuit(2).Detector(-1) },            // no measurements yet
		func() { NewCircuit(2).M(0).Detector(0) },        // non-negative ref
		func() { NewCircuit(2).M(0).Detector(-2) },       // too far back
		func() { NewCircuit(2).M(0).Observable(-1, -1) }, // bad index
		func() { NewCircuit(1).PauliChannel1(0.5, 0.4, 0.3, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// The frame-propagation tests below run one 64-shot BatchFrameSampler
// batch of a circuit whose errors are certain (p = 1) or absent, so every
// shot — every bit lane of a detector or observable word — must carry the
// same value.

// sampleBatch runs one 64-shot batch of c.
func sampleBatch(c *Circuit) BatchResult {
	return NewBatchFrameSampler(c, splitmix.New(1)).SampleBatch()
}

// lanes returns the value every shot of a deterministic batch word shares,
// failing the test when the shots disagree.
func lanes(t *testing.T, w uint64) bool {
	t.Helper()
	switch w {
	case 0:
		return false
	case ^uint64(0):
		return true
	}
	t.Fatalf("shots of one batch disagree: %#x", w)
	return false
}

func TestFrameNoiselessAllQuiet(t *testing.T) {
	c := NewCircuit(4)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).M(0, 1, 2, 3)
	c.Detector(-1, -2).Detector(-2, -3).Detector(-3, -4)
	for d, w := range sampleBatch(c).Detectors {
		if w != 0 {
			t.Fatalf("noiseless detector %d fired: %#x", d, w)
		}
	}
}

func TestFrameDeterministicXError(t *testing.T) {
	// The detector on the lone measurement is that measurement's flip.
	c := NewCircuit(1)
	c.XError(1.0, 0).M(0).Detector(-1)
	if !lanes(t, sampleBatch(c).Detectors[0]) {
		t.Fatal("certain X error should flip the measurement and fire the detector")
	}
}

func TestFrameZErrorInvisible(t *testing.T) {
	c := NewCircuit(1)
	c.ZError(1.0, 0).M(0).Detector(-1)
	if lanes(t, sampleBatch(c).Detectors[0]) {
		t.Fatal("Z error should be invisible to Z measurement")
	}
}

func TestFrameHadamardConvertsZtoX(t *testing.T) {
	// Z error then H => X error => visible.
	c := NewCircuit(1)
	c.ZError(1.0, 0).H(0).M(0).Detector(-1)
	if !lanes(t, sampleBatch(c).Detectors[0]) {
		t.Fatal("H should rotate Z error into X")
	}
}

func TestFrameCXPropagation(t *testing.T) {
	// X on control propagates to target through CX.
	c := NewCircuit(2)
	c.XError(1.0, 0).CX(0, 1).M(1).Detector(-1)
	if !lanes(t, sampleBatch(c).Detectors[0]) {
		t.Fatal("X should copy through CX control")
	}
	// Z on target propagates to control.
	c2 := NewCircuit(2)
	c2.ZError(1.0, 1).CX(0, 1).H(0).M(0).Detector(-1)
	if !lanes(t, sampleBatch(c2).Detectors[0]) {
		t.Fatal("Z should copy through CX target")
	}
}

func TestFrameSwapMovesErrors(t *testing.T) {
	c := NewCircuit(2)
	c.XError(1.0, 0).Swap(0, 1).M(0, 1).Detector(-2).Detector(-1)
	res := sampleBatch(c)
	if lanes(t, res.Detectors[0]) || !lanes(t, res.Detectors[1]) {
		t.Fatalf("SWAP should move the error: %#x", res.Detectors)
	}
}

func TestFrameMRClearsFrame(t *testing.T) {
	// Detector 0 watches the MR's own record, detector 1 the measurement
	// after the reset.
	c := NewCircuit(1)
	c.XError(1.0, 0).MR(0, 0).M(0).Detector(-2).Detector(-1)
	res := sampleBatch(c)
	if !lanes(t, res.Detectors[0]) {
		t.Fatal("first measurement should have flipped")
	}
	if lanes(t, res.Detectors[1]) {
		t.Fatal("MR should clear the frame; second measurement clean")
	}
}

func TestFrameReadoutFlipIsClassical(t *testing.T) {
	// A readout flip must not corrupt the measured state: detector 0
	// watches the flipped readout, detector 1 the clean one after it.
	c := NewCircuit(1)
	c.MFlip(1.0, 0).M(0).Detector(-2).Detector(-1)
	res := sampleBatch(c)
	if !lanes(t, res.Detectors[0]) {
		t.Fatal("first readout should always flip")
	}
	if lanes(t, res.Detectors[1]) {
		t.Fatal("second clean measurement should agree with reference")
	}
}

func TestFrameObservable(t *testing.T) {
	c := NewCircuit(2)
	c.XError(1.0, 0).M(0, 1).Observable(0, -2).Observable(1, -1)
	res := sampleBatch(c)
	if !lanes(t, res.Observables[0]) || lanes(t, res.Observables[1]) {
		t.Fatalf("observables wrong: %#x", res.Observables)
	}
}

// repCodeCircuit builds a 3-qubit bit-flip repetition-code memory with r
// rounds of parity checks under X noise with probability p per data qubit
// per round. Qubits 0,1,2 data; 3,4 ancilla.
func repCodeCircuit(p float64, rounds int) *Circuit {
	c := NewCircuit(5)
	for r := 0; r < rounds; r++ {
		c.XError(p, 0, 1, 2)
		c.CX(0, 3, 1, 4)
		c.CX(1, 3, 2, 4)
		c.MR(0, 3, 4)
		if r == 0 {
			c.Detector(-2)
			c.Detector(-1)
		} else {
			c.Detector(-2, -4)
			c.Detector(-1, -3)
		}
	}
	c.M(0, 1, 2)
	c.Detector(-3, -2, -5)
	c.Detector(-2, -1, -4)
	c.Observable(0, -3)
	return c
}

func TestRepetitionCodeDetectorContract(t *testing.T) {
	c := repCodeCircuit(0.1, 3)
	tr := NewTableauRunner(c, rand.New(rand.NewSource(2)))
	if !tr.VerifyDetectorsDeterministic(5) {
		t.Fatal("repetition code detectors must be deterministic without noise")
	}
}

// batchRates returns c's per-detector and per-observable firing rates over
// exactly shots shots of the batch sampler; the last batch is masked to the
// shots it contributes.
func batchRates(c *Circuit, seed int64, shots int) (det, obs []float64) {
	det = make([]float64, c.NumDetectors())
	obs = make([]float64, c.NumObservables())
	bs := NewBatchFrameSampler(c, splitmix.New(seed))
	for done := 0; done < shots; done += 64 {
		mask := ^uint64(0)
		if n := shots - done; n < 64 {
			mask = 1<<uint(n) - 1
		}
		res := bs.SampleBatch()
		for d, w := range res.Detectors {
			det[d] += float64(bits.OnesCount64(w & mask))
		}
		for o, w := range res.Observables {
			obs[o] += float64(bits.OnesCount64(w & mask))
		}
	}
	return scaleRates(det, shots), scaleRates(obs, shots)
}

// tableauRates is batchRates over shots exact TableauRunner shots.
func tableauRates(c *Circuit, seed int64, shots int) (det, obs []float64) {
	det = make([]float64, c.NumDetectors())
	obs = make([]float64, c.NumObservables())
	tr := NewTableauRunner(c, rand.New(rand.NewSource(seed)))
	for s := 0; s < shots; s++ {
		res := tr.Sample()
		for d, v := range res.Detectors {
			if v {
				det[d]++
			}
		}
		for o, v := range res.Observables {
			if v {
				obs[o]++
			}
		}
	}
	return scaleRates(det, shots), scaleRates(obs, shots)
}

func scaleRates(counts []float64, shots int) []float64 {
	for i := range counts {
		counts[i] /= float64(shots)
	}
	return counts
}

func TestFrameMatchesTableauOnRepetitionCode(t *testing.T) {
	// Compare detector firing rates between the two backends.
	c := repCodeCircuit(0.08, 2)
	shots := 4000
	fRate, _ := batchRates(c, 3, shots)
	tRate, _ := tableauRates(c, 4, shots)
	for i := range fRate {
		if math.Abs(fRate[i]-tRate[i]) > 0.04 {
			t.Errorf("detector %d rate mismatch: frame %.3f vs tableau %.3f", i, fRate[i], tRate[i])
		}
	}
}

func TestFrameMatchesTableauObservableRate(t *testing.T) {
	c := repCodeCircuit(0.15, 2)
	shots := 4000
	_, fr := batchRates(c, 5, shots)
	_, tr := tableauRates(c, 6, shots)
	if math.Abs(fr[0]-tr[0]) > 0.04 {
		t.Fatalf("observable rate mismatch: frame %.3f vs tableau %.3f", fr[0], tr[0])
	}
}

func TestPropertyFrameTableauAgreeOnRandomCircuits(t *testing.T) {
	// Random small Clifford circuits with mid-circuit measurements used as
	// detector references in same-qubit repeated-measurement pairs, which
	// are always deterministic.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3
		c := NewCircuit(n)
		for i := 0; i < 12; i++ {
			switch rng.Intn(4) {
			case 0:
				c.H(rng.Intn(n))
			case 1:
				c.S(rng.Intn(n))
			case 2:
				a, b := rng.Intn(n), rng.Intn(n)
				if a != b {
					c.CX(a, b)
				}
			case 3:
				c.Depolarize1(0.1, rng.Intn(n))
			}
		}
		// Deterministic detector: measure a qubit twice, with depolarizing
		// noise in between (noise is skipped in the reference run, so the
		// detector contract still holds).
		q := rng.Intn(n)
		c.M(q).Depolarize1(0.2, q).M(q).Detector(-1, -2)
		shots := 1200
		fr, _ := batchRates(c, seed+1, shots)
		tr, _ := tableauRates(c, seed+2, shots)
		return math.Abs(fr[0]-tr[0]) < 0.07
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestIdlePauliChannel(t *testing.T) {
	px, py, pz := IdlePauliChannel(0, 100, 100)
	if px != 0 || py != 0 || pz != 0 {
		t.Fatal("zero duration should be noiseless")
	}
	px, py, pz = IdlePauliChannel(10, 100, 150)
	if px != py {
		t.Fatal("px should equal py")
	}
	wantX := (1 - math.Exp(-0.1)) / 4
	if math.Abs(px-wantX) > 1e-12 {
		t.Fatalf("px = %v want %v", px, wantX)
	}
	wantZ := (1-math.Exp(-10.0/150))/2 - wantX
	if math.Abs(pz-wantZ) > 1e-12 {
		t.Fatalf("pz = %v want %v", pz, wantZ)
	}
	if px+py+pz > 1 {
		t.Fatal("total probability exceeds 1")
	}
	// T2 clamp: T2 > 2 T1 behaves as T2 = 2 T1.
	_, _, pzClamped := IdlePauliChannel(10, 100, 1000)
	_, _, pzLimit := IdlePauliChannel(10, 100, 200)
	if math.Abs(pzClamped-pzLimit) > 1e-12 {
		t.Fatal("T2 clamp missing")
	}
	if IdleErrorProbability(10, 100, 150) <= 0 {
		t.Fatal("IdleErrorProbability should be positive")
	}
}

func TestCircuitAppend(t *testing.T) {
	a := NewCircuit(2)
	a.M(0)
	b := NewCircuit(2)
	b.M(1)
	a.Append(b)
	a.Detector(-1, -2) // references records from both halves
	if a.NumMeasurements() != 2 || a.NumDetectors() != 1 {
		t.Fatal("append counts wrong")
	}
	if sampleBatch(a).Detectors[0] != 0 {
		t.Fatal("clean append sample should not fire")
	}
}

func TestVerifyDetectorsDeterministicCatchesBadCircuit(t *testing.T) {
	// A detector over a genuinely random measurement violates the contract.
	c := NewCircuit(1)
	c.H(0).M(0).Detector(-1)
	tr := NewTableauRunner(c, rand.New(rand.NewSource(3)))
	if tr.VerifyDetectorsDeterministic(12) {
		t.Fatal("random detector should be flagged as nondeterministic")
	}
}

func TestTableauRunnerResetOp(t *testing.T) {
	// R collapses and clears; a detector after reset+measure never fires.
	c := NewCircuit(1)
	c.H(0).R(0).M(0).Detector(-1)
	tr := NewTableauRunner(c, rand.New(rand.NewSource(4)))
	for i := 0; i < 20; i++ {
		if tr.Sample().Detectors[0] {
			t.Fatal("reset qubit should always measure 0")
		}
	}
	if sampleBatch(c).Detectors[0] != 0 {
		t.Fatal("frame sampler disagrees on reset")
	}
}

func TestSDagMatchesThreeS(t *testing.T) {
	// SDag is its own op in the frame sampler: Z-component behavior of S
	// and SDag agree (sign-free frames), in every shot of the batch.
	mk := func(useDag bool) *Circuit {
		c := NewCircuit(1)
		c.XError(1.0, 0)
		if useDag {
			c.SDag(0)
		} else {
			c.S(0).S(0).S(0)
		}
		c.H(0).M(0).Detector(-1)
		return c
	}
	a := lanes(t, sampleBatch(mk(true)).Detectors[0])
	b := lanes(t, sampleBatch(mk(false)).Detectors[0])
	if a != b {
		t.Fatal("SDag and S^3 disagree")
	}
}
