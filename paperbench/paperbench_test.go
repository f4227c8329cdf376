package main

import (
	"context"
	"testing"

	"hetarch/internal/obs/stats"
)

// testScale keeps the grids of every workload but shrinks their effort.
// Shot budgets still straddle the 256-shot shard and 64-shot batch sizes,
// so the seed moves every count.
var testScale = scale{
	SurfaceShots: 300,
	UECShots:     1000,
	PTShots:      500,
	CTShots:      500,
	Horizon:      500,
	MaxDistance:  7,
}

func countsOf(t *testing.T, w workload, seed int64) exactCounts {
	t.Helper()
	tp, err := runTracedPass(context.Background(), newTracer(), w.Grid(seed, testScale))
	if err != nil {
		t.Fatal(err)
	}
	return tp.counts
}

// TestExactCounts checks that every exact work count repeats for one seed
// and moves with the seed, so a later change can cite them as evidence. A
// count is a sum of small per-point counts and can coincide for two seeds
// by chance (mc.shards on ct-distill takes about a dozen values), so it
// must differ from seed 1's for at least one of seeds 2 and 3.
func TestExactCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := countsOf(t, w, 1), countsOf(t, w, 1)
			if a != b {
				t.Fatalf("seed 1 counts differ between runs: %+v vs %+v", a, b)
			}
			c, d := countsOf(t, w, 2), countsOf(t, w, 3)
			checks := []struct {
				name string
				get  func(exactCounts) int64
				used bool // the workload does this work at all
			}{
				{"stabsim.batches", func(e exactCounts) int64 { return e.batches }, true},
				{"mc.shards", func(e exactCounts) int64 { return e.shards }, true},
				{"decoder.uf.defects", func(e exactCounts) int64 { return e.defects }, w.Name == "surface-sweep"},
				{"decoder.lookup.decodes", func(e exactCounts) int64 { return e.lookupDecodes }, w.Name != "surface-sweep"},
				{"sched.events", func(e exactCounts) int64 { return e.events }, w.Name == "ct-distill"},
			}
			for _, k := range checks {
				v1, v2, v3 := k.get(a), k.get(c), k.get(d)
				switch {
				case k.used && v1 == 0:
					t.Errorf("%s: no work counted", k.name)
				case k.used && v1 == v2 && v1 == v3:
					t.Errorf("%s = %d for seeds 1, 2 and 3", k.name, v1)
				case !k.used && (v1 != 0 || v2 != 0 || v3 != 0):
					t.Errorf("%s = %d, %d, %d on a workload that should not do this work", k.name, v1, v2, v3)
				}
			}
		})
	}
}

// TestReplayFidelity checks that the traced replay reproduces the public
// entry points' outcomes bit for bit, and that both pass the invariants.
func TestReplayFidelity(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			pts := w.Grid(3, testScale)
			pr, err := untracedPass(ctx, w, pts)
			if err != nil {
				t.Fatal(err)
			}
			tp, err := runTracedPass(ctx, newTracer(), pts)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pts {
				if err := invariant(p, pr.outs[i]); err != nil {
					t.Errorf("%s: %v", p.Label, err)
				}
				if !tp.outs[i].equal(pr.outs[i]) {
					t.Errorf("%s: replay %+v, entry point %+v", p.Label, tp.outs[i], pr.outs[i])
				}
			}
		})
	}
}

// TestCheckerCountsMismatches checks that a digest mismatch is a failed
// point, not a crash, and that the committed reference covers the grids.
func TestCheckerCountsMismatches(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			pts := w.Grid(seed, defaultScale)
			d := newChecker(w.Name, seed, ref).ref
			if d == nil {
				t.Fatalf("%s seed %d: no committed digests", w.Name, seed)
			}
			for _, p := range pts {
				if _, ok := d.Points[p.Label]; !ok {
					t.Errorf("%s seed %d: no digest for %s", w.Name, seed, p.Label)
				}
			}
		}
	}
	pts := workloads[1].Grid(defaultSeed, defaultScale)[:2]
	outs := []outcome{
		{Shots: int64(pts[0].Shots), Errors: 1, Value: 0.1, CI: &stats.Interval{Lo: 0, Hi: 1}},
		{Shots: int64(pts[1].Shots) + 1, Errors: 1, Value: 0.1, CI: &stats.Interval{Lo: 0, Hi: 1}},
	}
	n, fails := newChecker(workloads[1].Name, defaultSeed, ref).check(pts, outs)
	if n != 3 || len(fails) != 3 {
		t.Fatalf("checked %d items with %d failures %q; want 3 and 3 (a wrong digest, a wrong shot count, a wrong table)", n, len(fails), fails)
	}
}
