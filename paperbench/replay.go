package main

// The traced replay drives every point through the layers' own public
// functions — stabsim.BatchFrameSampler, decoder.UnionFind and
// decoder.Lookup, mc.RunContext and mc.MapShardsContext, distill.Module,
// codetelep.SimulateCatGen — in the order the entry points in sweep.go call
// them, and wraps each call in a span. The layers carry no tracing of their
// own. A replay that stops reproducing the entry point's tallies bit for
// bit fails the traced run, since its spans would then describe a
// different program.

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime/metrics"

	"hetarch/internal/codetelep"
	"hetarch/internal/decoder"
	"hetarch/internal/distill"
	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

// Tags on mc spans name the layer whose shards they run.
const (
	tagSurface int32 = 1
	tagUEC     int32 = 2
	tagDistill int32 = 3
)

// Program counters the replay reads at span boundaries. They are the
// layers' existing always-on telemetry.
var (
	ufDefects    = obs.H("decoder.unionfind.defects_per_shot")
	stabBatches  = obs.C("stabsim.batches")
	schedEvents  = obs.C("sched.events")
	schedDepth   = obs.G("sched.max_queue_depth")
	surfaceShots = obs.C("surface.shots")
	uecShots     = obs.C("uec.shots")
)

// replayCounts accumulates the exact work counts of traced passes.
type replayCounts struct {
	surfaceShots  int64
	uecShots      int64
	ufDecodes     int64
	defects       map[int32]int64 // union-find defects by code distance
	lookupDecodes int64           // uec shots with a non-trivial syndrome
	distillAllocs int64           // heap objects allocated inside distill.run
}

func newReplayCounts() *replayCounts {
	return &replayCounts{defects: map[int32]int64{}}
}

func (c *replayCounts) add(o *replayCounts) {
	c.surfaceShots += o.surfaceShots
	c.uecShots += o.uecShots
	c.ufDecodes += o.ufDecodes
	for d, n := range o.defects {
		c.defects[d] += n
	}
	c.lookupDecodes += o.lookupDecodes
	c.distillAllocs += o.distillAllocs
}

func (c *replayCounts) totalDefects() int64 {
	var n int64
	for _, v := range c.defects {
		n += v
	}
	return n
}

// replay is one traced pass's state.
type replay struct {
	tr    *tracer
	cnt   *replayCounts
	alloc []metrics.Sample
}

func newReplay(tr *tracer) *replay {
	return &replay{tr: tr, cnt: newReplayCounts(),
		alloc: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (r *replay) allocs() int64 {
	metrics.Read(r.alloc)
	return int64(r.alloc[0].Value.Uint64())
}

// point replays one point and returns its outcome.
func (r *replay) point(ctx context.Context, p point) (outcome, error) {
	switch p.Kind {
	case kindSurface:
		res, err := r.surface(ctx, p.Surface, p.Shots, p.Seed)
		return surfaceOutcome(res), err
	case kindUEC:
		res, _, err := r.uec(ctx, p.UEC, p.Shots, p.Seed)
		return uecOutcome(res), err
	case kindPseudo:
		sp := r.tr.begin("uec.pseudothreshold", 0)
		pt, ok, err := r.pseudothreshold(ctx, p.UEC, p.Shots, p.Seed)
		r.tr.end(sp)
		return pseudoOutcome(pt, ok), err
	case kindDistill:
		return distillOutcome(r.distill(p.Distill, p.Horizon)), nil
	case kindCT:
		sp := r.tr.begin("codetelep.evaluate", 0)
		res, err := r.codetelep(ctx, p.CT)
		r.tr.end(sp)
		if err != nil {
			return outcome{}, err
		}
		return ctOutcome(res), nil
	}
	return outcome{}, fmt.Errorf("point %s: unknown kind %d", p.Label, p.Kind)
}

// surface mirrors surface.New and Experiment.RunContext.
func (r *replay) surface(ctx context.Context, p surface.Params, shots int, seed int64) (surface.Result, error) {
	tr := r.tr
	sp := tr.begin("surface.new", 0)
	e, err := surface.New(p)
	tr.end(sp)
	if err != nil {
		return surface.Result{}, err
	}
	dist := int32(p.Distance)
	defects0, decodes0 := ufDefects.Sum(), ufDefects.Count()

	run := tr.begin("surface.run", 0)
	m := tr.begin("mc.run", tagSurface)
	tally, err := mc.RunContext(ctx, mc.Config{Shots: shots, Seed: seed, Workers: workers}, func() mc.ShardRunner {
		w := tr.begin("surface.worker", 0)
		rng := splitmix.New(0)
		bs := stabsim.NewBatchFrameSampler(e.Circuit, rng)
		uf := decoder.NewUnionFind(e.Graph)
		var preds [64]uint64
		tr.end(w)
		return func(sh mc.Shard) mc.Tally {
			s := tr.begin("mc.shard", tagSurface)
			rng.Seed(sh.Seed)
			var t mc.Tally
			for done := 0; done < sh.Shots; {
				b := tr.begin("stabsim.sample", 0)
				batch := bs.SampleBatch()
				tr.end(b)
				n := min(64, sh.Shots-done)
				b = tr.begin("decoder.uf", dist)
				uf.DecodeBatch(batch.Detectors, n, preds[:])
				tr.end(b)
				for i := 0; i < n; i++ {
					actual := batch.Observables[0]>>uint(i)&1 == 1
					if (preds[i]&1 == 1) != actual {
						t.Errors++
					}
				}
				done += n
			}
			t.Shots = int64(sh.Shots)
			surfaceShots.Add(t.Shots)
			tr.end(s)
			return t
		}
	})
	tr.end(m)
	tr.end(run)

	r.cnt.surfaceShots += tally.Shots
	r.cnt.defects[dist] += ufDefects.Sum() - defects0
	r.cnt.ufDecodes += ufDefects.Count() - decodes0
	return surface.Result{Shots: int(tally.Shots), LogicalErrors: int(tally.Errors), Rounds: e.Params.Rounds}, err
}

// uecMasks rebuilds the decoder wiring uec.New keeps private: the check
// masks of the measured sector's stabilizers and the logical operator.
func uecMasks(p uec.Params) (checks []uint64, logical uint64) {
	stabs, lop := p.Code.ZStabs, p.Code.LogicalZ
	if p.Basis == 'X' {
		stabs, lop = p.Code.XStabs, p.Code.LogicalX
	}
	checks = make([]uint64, len(stabs))
	for i, s := range stabs {
		checks[i] = supportMask(qec.Support(s))
	}
	return checks, supportMask(qec.Support(lop))
}

func supportMask(support []int) uint64 {
	var m uint64
	for _, q := range support {
		m |= 1 << uint(q)
	}
	return m
}

// uec mirrors uec.New and Experiment.RunContext. The per-shot loop is
// split so one span covers a batch's lookup decodes: transpose, then
// decode every shot with a syndrome, then tally.
func (r *replay) uec(ctx context.Context, p uec.Params, shots int, seed int64) (uec.Result, *uec.Experiment, error) {
	tr := r.tr
	sp := tr.begin("uec.new", 0)
	e, err := uec.New(p)
	if err != nil {
		tr.end(sp)
		return uec.Result{}, nil, err
	}
	checks, logical := uecMasks(e.P)
	lookup, k := decoder.CachedLookup(p.Code.N, checks), len(checks)
	tr.end(sp)

	run := tr.begin("uec.run", 0)
	m := tr.begin("mc.run", tagUEC)
	tally, err := mc.RunContext(ctx, mc.Config{Shots: shots, Seed: seed, Workers: workers}, func() mc.ShardRunner {
		w := tr.begin("uec.worker", 0)
		rng := splitmix.New(0)
		bs := stabsim.NewBatchFrameSampler(e.Circuit, rng)
		var syn1, synBoth [64]uint64
		tr.end(w)
		return func(sh mc.Shard) mc.Tally {
			s := tr.begin("mc.shard", tagUEC)
			rng.Seed(sh.Seed)
			var t mc.Tally
			for done := 0; done < sh.Shots; {
				b := tr.begin("stabsim.sample", 0)
				batch := bs.SampleBatch()
				tr.end(b)
				n := min(64, sh.Shots-done)
				for i := 0; i < n; i++ {
					syn1[i] = 0
					synBoth[i] = 0
				}
				for i := 0; i < k; i++ {
					for w := batch.Detectors[i]; w != 0; w &= w - 1 {
						syn1[bits.TrailingZeros64(w)] |= 1 << uint(i)
					}
					for w := batch.Detectors[k+i]; w != 0; w &= w - 1 {
						synBoth[bits.TrailingZeros64(w)] |= 1 << uint(i)
					}
				}
				b = tr.begin("decoder.lookup", 0)
				var pred uint64 // bit i: shot i's predicted observable flip
				for i := 0; i < n; i++ {
					s1, sBoth := syn1[i], synBoth[i]
					if s1 == 0 && sBoth == 0 {
						continue // clean shot: the prediction is "no flip"
					}
					r.cnt.lookupDecodes++
					c1 := lookup.Decode(s1)
					c2 := lookup.Decode(sBoth ^ lookup.Syndrome(c1))
					if bits.OnesCount64((c1^c2)&logical)%2 == 1 {
						pred |= 1 << uint(i)
					}
				}
				tr.end(b)
				mask := ^uint64(0)
				if n < 64 {
					mask = 1<<uint(n) - 1
				}
				t.Errors += int64(bits.OnesCount64((pred ^ batch.Observables[0]) & mask))
				done += n
			}
			t.Shots = int64(sh.Shots)
			uecShots.Add(t.Shots)
			tr.end(s)
			return t
		}
	})
	tr.end(m)
	tr.end(run)

	r.cnt.uecShots += tally.Shots
	return uec.Result{Shots: int(tally.Shots), LogicalErrors: int(tally.Errors)}, e, err
}

// pseudoGrid and pseudoParams mirror uec.PseudothresholdContext's grid of
// physical error rates and its per-point parameters.
var pseudoGrid = []float64{0.003, 0.006, 0.012, 0.024, 0.048}

func pseudoParams(base uec.Params, p2 float64, basis byte) uec.Params {
	p := base
	p.P2 = p2
	p.SwapError = p2 / 2
	p.Basis = basis
	p.TsMicros = 1e15
	p.TcMicros = 1e15
	return p
}

// pseudothreshold mirrors uec.PseudothresholdContext: the combined rate on
// the grid, then the power-law fit and its acceptance checks.
func (r *replay) pseudothreshold(ctx context.Context, base uec.Params, shots int, seed int64) (float64, bool, error) {
	var xs, ys []float64
	for _, p2 := range pseudoGrid {
		total := 0.0
		for _, basis := range []byte{'Z', 'X'} {
			res, _, err := r.uec(ctx, pseudoParams(base, p2, basis), shots, seed)
			if err != nil {
				return 0, false, err
			}
			total += res.LogicalErrorRate()
		}
		if total <= 0 {
			continue
		}
		xs = append(xs, math.Log(p2))
		ys = append(ys, math.Log(total))
	}
	if len(xs) < 2 {
		return 0, false, nil
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	b := (n*sxy - sx*sy) / (n*sxx - sx*sx)
	a := (sy - b*sx) / n
	if b <= 1 {
		return 0, false, nil
	}
	pt := math.Exp(a / (1 - b))
	if pt < 1e-5 || math.IsNaN(pt) || pt > 1 {
		return 0, false, nil
	}
	return pt, true, nil
}

// distill runs one module trajectory: the config as distill.new, the
// event loop as distill.run, counting the heap objects it allocates.
func (r *replay) distill(cfg distill.Config, horizon float64) distill.Stats {
	sp := r.tr.begin("distill.new", 0)
	m := distill.NewModule(cfg)
	r.tr.end(sp)
	a0 := r.allocs()
	sp = r.tr.begin("distill.run", 0)
	st := m.Run(horizon)
	r.tr.end(sp)
	r.cnt.distillAllocs += r.allocs() - a0
	return st
}

// ctDistillConfig, ctSides and ctUECParams mirror the sub-module set-up of
// codetelep.EvaluateContext.
func ctDistillConfig(p codetelep.Params) distill.Config {
	cfg := distill.DefaultConfig(p.TsMillis, p.Heterogeneous)
	cfg.Seed = p.Seed
	cfg.GenRateKHz = p.EPRateKHz
	cfg.RawInfidelity = p.EPRawInfidelity
	cfg.TargetFidelity = p.TargetEPFidelity
	cfg.ConsumeAtThreshold = true
	return cfg
}

type ctSide struct {
	name   string
	code   *qec.Code
	native bool
}

func ctSides(p codetelep.Params) []ctSide {
	return []ctSide{{"logical-A", p.CodeA, p.NativeA}, {"logical-B", p.CodeB, p.NativeB}}
}

func ctUECParams(p codetelep.Params, side ctSide, basis byte) uec.Params {
	up := uec.DefaultParams(side.code, p.TsMillis, p.Heterogeneous)
	up.Basis = basis
	up.NativePlacement = side.native
	up.P2 = p.P2
	up.TcMicros = p.TcMicros
	return up
}

// Distillation ensemble shape used by codetelep.EvaluateContext.
const (
	ctReplicas = 3
	ctHorizon  = 20000.0 // µs per replica
)

// codetelep mirrors codetelep.EvaluateContext step by step: the
// distillation ensemble on the mc engine, the rate-matching staleness, the
// simulated CAT generator, and one full QEC cycle of each side's UEC
// sub-module, composed into the error budget.
func (r *replay) codetelep(ctx context.Context, p codetelep.Params) (*codetelep.Result, error) {
	tr := r.tr
	res := &codetelep.Result{}

	cfg := ctDistillConfig(p)
	m := tr.begin("mc.run", tagDistill)
	perReplica, err := mc.MapShardsContext(ctx, mc.Config{Shots: ctReplicas, Seed: cfg.Seed, Workers: workers, ShardSize: 1},
		func() func(mc.Shard) distill.Stats {
			return func(sh mc.Shard) distill.Stats {
				s := tr.begin("mc.shard", tagDistill)
				c := cfg
				c.Seed = sh.Seed
				st := r.distill(c, ctHorizon)
				tr.end(s)
				return st
			}
		})
	tr.end(m)
	if err != nil {
		return nil, err
	}
	ens := distill.EnsembleStats{Replicas: len(perReplica), HorizonMicros: ctHorizon}
	for _, s := range perReplica {
		ens.Delivered += s.Delivered
	}
	if ens.Delivered < 5*ctReplicas {
		res.DistillationFailed = true
		res.LogicalErrorProbability = 0.5
		res.Budget.Add("distillation (failed)", 0.5, 0)
		return res, nil
	}
	epInfidelity := 1 - p.TargetEPFidelity
	epRate := ens.DeliveredRatePerSecond()

	nA, nB := p.CodeA.N, p.CodeB.N
	catSize := nA + nB
	epCount := 1 + p.VerifyChecks
	waitMemT := p.TsMillis * 1000
	if !p.Heterogeneous {
		waitMemT = p.TcMicros
	}
	if epRate > 0 && epCount > 1 {
		spacingMicros := 1e6 / epRate
		avgWait := spacingMicros * float64(epCount-1) / 2
		stale := distill.NewWernerPair(1-epInfidelity).
			Decohere(avgWait, waitMemT, waitMemT, waitMemT, waitMemT)
		epInfidelity = stale.Infidelity()
	}
	res.EPFidelityAchieved = 1 - epInfidelity

	storedCNOT := 4*p.SwapTime + p.GateTime
	catDuration := float64(catSize)*storedCNOT + float64(p.VerifyChecks)*(p.GateTime+p.ReadoutTime)
	memT := p.TsMillis * 1000
	if !p.Heterogeneous {
		memT = p.TcMicros
	}
	idlePX, idlePY, idlePZ := stabsim.IdlePauliChannel(catDuration/2, memT, memT)
	catShots := max(p.Shots, 2000)
	sp := tr.begin("codetelep.catgen", 0)
	cat := codetelep.SimulateCatGen(codetelep.CatGenParams{
		Size: catSize, P2: p.P2, EPInfidelity: epInfidelity, VerifyChecks: p.VerifyChecks,
		IdlePX: idlePX, IdlePY: idlePY, IdlePZ: idlePZ, Shots: catShots, Seed: p.Seed,
	})
	tr.end(sp)
	res.CatAcceptRate = cat.AcceptRate()
	res.Budget.Add("cat-generation (verified)", cat.ResidualErrorRate(), catDuration)
	res.Budget.Add("verification-EP consumption", 1-math.Pow(1-epInfidelity, float64(p.VerifyChecks)), 0)

	for _, side := range ctSides(p) {
		total := 0.0
		var dur float64
		for _, basis := range []byte{'Z', 'X'} {
			u, e, err := r.uec(ctx, ctUECParams(p, side, basis), p.Shots, p.Seed)
			if err != nil {
				return nil, err
			}
			total += u.LogicalErrorRate()
			res.UECErrors += int64(u.LogicalErrors)
			res.UECShots += int64(u.Shots)
			dur = e.CycleDuration
		}
		res.Budget.Add(side.name+" ("+side.code.Name+")", total, dur)
	}
	res.LogicalErrorProbability = min(res.Budget.TotalErrorRate(), 0.5)
	return res, nil
}
