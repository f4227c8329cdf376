package stabsim

import (
	"math"
	"testing"
)

// idlePauliChannelRef is IdlePauliChannel as first written, with one
// math.Exp per coherence time: the reference the t2 == t1 shortcut must
// match bit for bit.
func idlePauliChannelRef(duration, t1, t2 float64) (px, py, pz float64) {
	if duration <= 0 {
		return 0, 0, 0
	}
	var pT1 float64
	if t1 <= 0 {
		pT1 = 1
	} else {
		pT1 = 1 - math.Exp(-duration/t1)
	}
	if t1 > 0 && (t2 <= 0 || t2 > 2*t1) {
		t2 = 2 * t1
	}
	var pT2 float64
	if t2 <= 0 {
		pT2 = 1
	} else {
		pT2 = 1 - math.Exp(-duration/t2)
	}
	px = pT1 / 4
	py = pT1 / 4
	pz = pT2/2 - pT1/4
	if pz < 0 {
		pz = 0
	}
	return px, py, pz
}

func TestIdlePauliChannelBitIdentical(t *testing.T) {
	cases := []struct {
		name             string
		duration, t1, t2 float64
	}{
		{"t2 == t1", 0.37, 12500, 12500},
		{"t2 == t1 short", 1e-3, 500, 500},
		{"t2 == t1 long", 9e4, 500, 500},
		{"t2 > 2 t1", 3.1, 100, 1000},
		{"t2 == 2 t1", 3.1, 100, 200},
		{"t2 < t1", 3.1, 100, 40},
		{"t2 unset", 3.1, 100, 0},
		{"t1 == 0", 3.1, 0, 50},
		{"t1 < 0", 3.1, -5, 50},
		{"t1 == t2 == 0", 3.1, 0, 0},
		{"t1 == t2 < 0", 3.1, -1, -1},
		{"zero duration", 0, 100, 100},
	}
	for _, c := range cases {
		gx, gy, gz := IdlePauliChannel(c.duration, c.t1, c.t2)
		wx, wy, wz := idlePauliChannelRef(c.duration, c.t1, c.t2)
		for i, pair := range [][2]float64{{gx, wx}, {gy, wy}, {gz, wz}} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("%s: component %d = %v, reference %v", c.name, i, pair[0], pair[1])
			}
		}
	}
}
