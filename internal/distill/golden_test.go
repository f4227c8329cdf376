package distill

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// statsDigest renders every Stats field exactly: the counters, the horizon's
// bits, and the trace's length plus an FNV-64a hash over the float bits of
// every TracePoint's Time and BestInfidelity.
func statsDigest(s Stats) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(f float64) {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, tp := range s.Trace {
		put(tp.Time)
		put(tp.BestInfidelity)
	}
	return fmt.Sprintf("gen=%d stored=%d dropped=%d attempts=%d successes=%d delivered=%d horizon=%016x trace=%d/%016x",
		s.Generated, s.Stored, s.DroppedFull, s.Attempts, s.Successes, s.Delivered,
		math.Float64bits(s.HorizonMicros), len(s.Trace), h.Sum64())
}

// TestModuleRunGolden pins the exact outcome of Module.Run on the
// configurations the benchmark grid does not cover: the homogeneous
// baseline, a noisy distillation gate, and Fig. 3 trace mode, where
// delivered pairs stay in the output register and decay, so eviction and
// BestOutputInfidelity both run. Any change to the event loop, the
// decoherence arithmetic or the order of random draws shows up here.
func TestModuleRunGolden(t *testing.T) {
	// DefaultConfig's homogeneous baseline runs two distillers and routes
	// each round through one lattice SWAP.
	het, hom := DefaultConfig(12.5, true), DefaultConfig(12.5, false)
	noisy := het
	noisy.GateError = 5e-4
	traced := func(c Config) Config { c.TraceInterval = 1; return c }
	cases := []struct {
		name    string
		cfg     Config
		horizon float64
		want    string
	}{
		{"heterogeneous", withConsume(het), 20000,
			"gen=19686 stored=19686 dropped=1691 attempts=13375 successes=13035 delivered=4276 horizon=40d3880000000000 trace=0/cbf29ce484222325"},
		{"homogeneous", withConsume(hom), 20000,
			"gen=19807 stored=19807 dropped=1062 attempts=16554 successes=16076 delivered=1707 horizon=40d3880000000000 trace=0/cbf29ce484222325"},
		{"gate-error", withConsume(noisy), 20000,
			"gen=19686 stored=19686 dropped=1691 attempts=13375 successes=13033 delivered=4274 horizon=40d3880000000000 trace=0/cbf29ce484222325"},
		{"trace-heterogeneous", traced(het), 3000,
			"gen=2941 stored=2941 dropped=252 attempts=2000 successes=1960 delivered=646 horizon=40a7700000000000 trace=3001/e7faa93040daecbd"},
		{"trace-homogeneous", traced(hom), 3000,
			"gen=2997 stored=2997 dropped=153 attempts=2515 successes=2446 delivered=255 horizon=40a7700000000000 trace=3001/a5c7ac98077b0634"},
		{"trace-gate-error", traced(noisy), 3000,
			"gen=2941 stored=2941 dropped=252 attempts=2000 successes=1960 delivered=646 horizon=40a7700000000000 trace=3001/d5572286b68894b0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 11
			got := statsDigest(NewModule(tc.cfg).Run(tc.horizon))
			if got != tc.want {
				t.Errorf("got  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestRunEnsembleGolden pins the pooled statistics of an ensemble shaped
// like the one code teleportation runs for Table 4: three replicas of a
// 20 ms horizon with a raised target and a noisier source.
func TestRunEnsembleGolden(t *testing.T) {
	cfg := DefaultConfig(12.5, true)
	cfg.Seed = 20231028
	cfg.GenRateKHz = 500
	cfg.RawInfidelity = 0.025
	cfg.TargetFidelity = 0.997
	cfg.ConsumeAtThreshold = true
	got := mustRunEnsemble(t, cfg, 3, 20000, 2)
	want := EnsembleStats{Replicas: 3, HorizonMicros: 20000, Generated: 30282, Stored: 30282,
		DroppedFull: 110, Attempts: 22433, Successes: 21687, Delivered: 6984}
	if got != want {
		t.Fatalf("got  %+v\nwant %+v", got, want)
	}
}
