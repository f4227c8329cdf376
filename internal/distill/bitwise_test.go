package distill

import (
	"math"
	"math/rand"
	"testing"

	"hetarch/internal/stabsim"
)

// applyPauliOneSideRef is applyPauliOneSide as first written, a
// permutation loop accumulating into a [4]float64: the reference the
// scalar form must match bit for bit.
func applyPauliOneSideRef(p [4]float64, px, py, pz float64) [4]float64 {
	pi := 1 - px - py - pz
	var out [4]float64
	permX := [4]int{2, 3, 0, 1}
	permZ := [4]int{1, 0, 3, 2}
	permY := [4]int{3, 2, 1, 0}
	for i := 0; i < 4; i++ {
		out[i] += pi * p[i]
		out[permX[i]] += px * p[i]
		out[permY[i]] += py * p[i]
		out[permZ[i]] += pz * p[i]
	}
	return out
}

// decohereRef is Decohere as first written: one channel per noisy side.
func decohereRef(p Pair, dt, t1A, t2A, t1B, t2B float64) Pair {
	out := p.P
	if t1A > 0 {
		px, py, pz := stabsim.IdlePauliChannel(dt, t1A, t2A)
		out = applyPauliOneSideRef(out, px, py, pz)
	}
	if t1B > 0 {
		px, py, pz := stabsim.IdlePauliChannel(dt, t1B, t2B)
		out = applyPauliOneSideRef(out, px, py, pz)
	}
	return Pair{P: out}
}

// randomBell draws a normalized Bell-diagonal vector, zeroing a coefficient
// now and then so the sparse states distillation produces are covered.
func randomBell(rng *rand.Rand) Pair {
	var p Pair
	sum := 0.0
	for i := range p.P {
		if rng.Intn(5) > 0 {
			p.P[i] = rng.Float64()
		}
		sum += p.P[i]
	}
	if sum == 0 {
		return NewWernerPair(rng.Float64())
	}
	for i := range p.P {
		p.P[i] /= sum
	}
	return p
}

func sameBits(a, b [4]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestApplyPauliOneSideBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 20000; n++ {
		p := randomBell(rng)
		px, py, pz := rng.Float64()/3, rng.Float64()/3, rng.Float64()/3
		if n%7 == 0 {
			py = 0
		}
		got := applyPauliOneSide(p.P, px, py, pz)
		want := applyPauliOneSideRef(p.P, px, py, pz)
		if !sameBits(got, want) {
			t.Fatalf("p=%v channel=(%v,%v,%v): got %v, reference %v", p.P, px, py, pz, got, want)
		}
	}
}

func TestDecohereBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sides := [][4]float64{
		{500, 500, 500, 500},     // symmetric
		{12500, 12500, 500, 500}, // asymmetric T1
		{500, 800, 500, 300},     // same T1, different T2
		{500, 500, 0, 0},         // noiseless side B
		{0, 0, 700, 400},         // noiseless side A
		{-1, 5, -1, 5},           // both noiseless
	}
	for n := 0; n < 5000; n++ {
		p := randomBell(rng)
		dt := rng.ExpFloat64() * 200
		for _, s := range sides {
			got := p.Decohere(dt, s[0], s[1], s[2], s[3])
			want := decohereRef(p, dt, s[0], s[1], s[2], s[3])
			if !sameBits(got.P, want.P) {
				t.Fatalf("sides %v dt=%v: got %v, reference %v", s, dt, got.P, want.P)
			}
			// The module's precomputed symmetric channel.
			if s[0] == s[2] && s[1] == s[3] {
				if sym := newIdleChannel(dt, s[0], s[1]).bothSides(p); !sameBits(sym.P, want.P) {
					t.Fatalf("sides %v dt=%v: idleChannel %v, reference %v", s, dt, sym.P, want.P)
				}
			}
		}
	}
}

func TestPredictFidelityMatchesDEJMPS(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, gateError := range []float64{0, 1e-3} {
		m := NewModule(Config{InputSlots: 2, OutputSlots: 1, GateError: gateError})
		for n := 0; n < 20000; n++ {
			a, b := randomBell(rng), randomBell(rng)
			out, ps := DEJMPS(a, b, gateError)
			f, gotPs := m.predictFidelity(a, b)
			if math.Float64bits(f) != math.Float64bits(out.Fidelity()) ||
				math.Float64bits(gotPs) != math.Float64bits(ps) {
				t.Fatalf("gateError=%v a=%v b=%v: got (%v, %v), DEJMPS (%v, %v)",
					gateError, a.P, b.P, f, gotPs, out.Fidelity(), ps)
			}
		}
	}
}
