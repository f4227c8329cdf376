package surface

import (
	"fmt"
	"testing"
)

// TestRunGolden pins the exact (Shots, LogicalErrors) of RunContext on the
// Fig. 6/7 operating points: distances 5 and 13, both memory bases, and
// T_CD/T_CA ratios 1 and 8, each at 2,048 shots with one and two workers.
// Sampling, the matching graph and union-find decoding all feed these
// counts, so a change to any of them that is not bit-identical shows up
// here; worker count must not move them.
func TestRunGolden(t *testing.T) {
	const shots, seed = 2048, 20231028
	cases := []struct {
		d      int
		basis  byte
		ratio  float64
		errors int
	}{
		{5, 'Z', 1, 191},
		{5, 'Z', 8, 122},
		{5, 'X', 1, 269},
		{5, 'X', 8, 244},
		{13, 'Z', 1, 497},
		{13, 'Z', 8, 283},
		{13, 'X', 1, 617},
		{13, 'X', 8, 438},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("d%d-%c-ratio%g", tc.d, tc.basis, tc.ratio), func(t *testing.T) {
			p := DefaultParams(tc.d)
			p.Basis = tc.basis
			p.TcdMicros = 100 * tc.ratio
			e, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				got := mustRun(t, e, shots, seed, workers)
				if got.Shots != shots || got.LogicalErrors != tc.errors {
					t.Errorf("workers=%d: (shots, errors) = (%d, %d), want (%d, %d)",
						workers, got.Shots, got.LogicalErrors, shots, tc.errors)
				}
			}
		})
	}
}
