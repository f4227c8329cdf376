package stabsim

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"hetarch/internal/splitmix"
)

func TestBernoulliMaskExtremes(t *testing.T) {
	rng := splitmix.New(1)
	if bernoulliMask(rng, 0) != 0 {
		t.Fatal("p=0 should give empty mask")
	}
	if bernoulliMask(rng, 1) != ^uint64(0) {
		t.Fatal("p=1 should give full mask")
	}
}

func TestBernoulliMaskStatistics(t *testing.T) {
	rng := splitmix.New(2)
	for _, p := range []float64{0.01, 0.1, 0.5, 0.9} {
		total := 0
		samples := 4000
		for i := 0; i < samples; i++ {
			total += bits.OnesCount64(bernoulliMask(rng, p))
		}
		got := float64(total) / float64(samples*64)
		if math.Abs(got-p) > 0.01+p*0.05 {
			t.Fatalf("p=%v: measured %v", p, got)
		}
	}
}

// TestForEachDetectorBit pins the sparse iterator against a dense scan of
// the same words: every fired (detector, shot) pair exactly once, in
// detector-major shot-minor order.
func TestForEachDetectorBit(t *testing.T) {
	rng := splitmix.New(4)
	words := make([]uint64, 9)
	for i := range words {
		words[i] = rng.Uint64() & rng.Uint64() & rng.Uint64() // sparse-ish
	}
	words[3] = 0 // empty word must be skipped wholesale
	res := BatchResult{Detectors: words}

	var got [][2]int
	res.ForEachDetectorBit(func(d, s int) { got = append(got, [2]int{d, s}) })

	var want [][2]int
	for d, w := range words {
		for s := 0; s < 64; s++ {
			if w>>uint(s)&1 == 1 {
				want = append(want, [2]int{d, s})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("iterator visited %d pairs, dense scan %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d: iterator %v, dense scan %v", i, got[i], want[i])
		}
	}
}

func TestBatchDeterministicError(t *testing.T) {
	c := NewCircuit(1)
	c.XError(1.0, 0).M(0).Detector(-1)
	bs := NewBatchFrameSampler(c, splitmix.New(1))
	res := bs.SampleBatch()
	if res.Detectors[0] != ^uint64(0) {
		t.Fatalf("certain error should fire in every shot: %x", res.Detectors[0])
	}
}

func TestBatchNoiselessQuiet(t *testing.T) {
	c := NewCircuit(3)
	c.H(0).CX(0, 1).CX(1, 2).M(0, 1, 2)
	c.Detector(-1, -2).Detector(-2, -3)
	bs := NewBatchFrameSampler(c, splitmix.New(1))
	res := bs.SampleBatch()
	for i, d := range res.Detectors {
		if d != 0 {
			t.Fatalf("noiseless detector %d fired: %x", i, d)
		}
	}
}

func TestBatchMatchesTableauRates(t *testing.T) {
	// 120 batches (7680 shots) against 6000 exact tableau shots.
	c := repCodeCircuit(0.08, 2)
	det, obs := batchRates(c, 3, 120*64)
	tDet, tObs := tableauRates(c, 4, 6000)
	for d := range det {
		if math.Abs(det[d]-tDet[d]) > 0.03 {
			t.Fatalf("detector %d: batch %.3f vs tableau %.3f", d, det[d], tDet[d])
		}
	}
	if math.Abs(obs[0]-tObs[0]) > 0.03 {
		t.Fatal("observable rates disagree")
	}
}

func TestBatchGateConventionsMatchTableau(t *testing.T) {
	// Deterministic error propagation through every gate type must agree
	// bit-for-bit with the exact tableau. The gates under test are preceded
	// by their inverse, so every noiseless measurement is a deterministic 0
	// (the detector contract the tableau reference needs), while the
	// certain errors in between propagate through the gates under test
	// alone.
	c := NewCircuit(3)
	c.Swap(0, 2).CZ(1, 2).CX(0, 1).H(0).SDag(0).H(0) // inverse of the gates below
	c.XError(1.0, 0)
	c.ZError(1.0, 2)
	c.H(0)       // X->Z on 0
	c.S(0)       // Z unchanged
	c.H(0)       // back to X
	c.CX(0, 1)   // X copies to 1
	c.CZ(1, 2)   // X on 1 adds Z on 2 (cancels existing Z), X on...
	c.Swap(0, 2) // swap frames
	c.M(0, 1, 2)
	c.Detector(-3)
	c.Detector(-2)
	c.Detector(-1)
	if !NewTableauRunner(c, rand.New(rand.NewSource(1))).VerifyDetectorsDeterministic(4) {
		t.Fatal("echo circuit has non-deterministic detectors")
	}
	want := NewTableauRunner(c, rand.New(rand.NewSource(1))).Sample()
	bres := NewBatchFrameSampler(c, splitmix.New(1)).SampleBatch()
	for d, w := range bres.Detectors {
		if got := lanes(t, w); got != want.Detectors[d] {
			t.Fatalf("detector %d: tableau %v batch %x", d, want.Detectors[d], w)
		}
	}
}

func TestBatchMRClears(t *testing.T) {
	c := NewCircuit(1)
	c.XError(1.0, 0).MR(0, 0).M(0).Detector(-1)
	bs := NewBatchFrameSampler(c, splitmix.New(1))
	if res := bs.SampleBatch(); res.Detectors[0] != 0 {
		t.Fatal("MR should clear the frame in every shot")
	}
}
