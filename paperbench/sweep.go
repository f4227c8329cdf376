package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"hetarch/internal/codetelep"
	"hetarch/internal/distill"
	"hetarch/internal/obs/stats"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

// workers is the mc engine's goroutine count for every run: the machine
// the benchmark targets has two shared cores, so multi-worker scaling is
// not measured.
const workers = 1

// outcome is what the correctness check sees of one point: the Monte Carlo
// tally, the reported value with its confidence interval, and any further
// exact tallies of the point.
type outcome struct {
	Shots  int64
	Errors int64
	Value  float64
	CI     *stats.Interval
	Extra  []int64
}

// equal reports whether two outcomes are bit-identical.
func (o outcome) equal(u outcome) bool {
	if o.Shots != u.Shots || o.Errors != u.Errors ||
		math.Float64bits(o.Value) != math.Float64bits(u.Value) ||
		(o.CI == nil) != (u.CI == nil) || len(o.Extra) != len(u.Extra) {
		return false
	}
	if o.CI != nil && (math.Float64bits(o.CI.Lo) != math.Float64bits(u.CI.Lo) ||
		math.Float64bits(o.CI.Hi) != math.Float64bits(u.CI.Hi)) {
		return false
	}
	for i := range o.Extra {
		if o.Extra[i] != u.Extra[i] {
			return false
		}
	}
	return true
}

func ciPtr(iv stats.Interval) *stats.Interval { return &iv }

// The outcome constructors below are shared with the traced replay, so
// both paths report a point identically.
func surfaceOutcome(r surface.Result) outcome {
	return outcome{Shots: int64(r.Shots), Errors: int64(r.LogicalErrors),
		Value: r.PerCycleErrorRate(), CI: ciPtr(r.PerCycleCI(0.95))}
}

func uecOutcome(r uec.Result) outcome {
	return outcome{Shots: int64(r.Shots), Errors: int64(r.LogicalErrors),
		Value: r.LogicalErrorRate(), CI: ciPtr(r.CI(0.95))}
}

func pseudoOutcome(pt float64, ok bool) outcome {
	var okBit int64
	if ok {
		okBit = 1
	}
	return outcome{Value: pt, Extra: []int64{okBit}}
}

func distillOutcome(s distill.Stats) outcome {
	return outcome{Value: s.DeliveredRatePerSecond() / 1000, Extra: []int64{
		int64(s.Generated), int64(s.Stored), int64(s.DroppedFull),
		int64(s.Attempts), int64(s.Successes), int64(s.Delivered)}}
}

func ctOutcome(r *codetelep.Result) outcome {
	var failed int64
	if r.DistillationFailed {
		failed = 1
	}
	return outcome{Shots: r.UECShots, Errors: r.UECErrors, Value: r.LogicalErrorProbability,
		CI: r.CI(0.95), Extra: []int64{failed,
			int64(math.Float64bits(r.EPFidelityAchieved)), int64(math.Float64bits(r.CatAcceptRate))}}
}

// runPoint drives one point through the program's public entry points, the
// same calls the internal/experiments runners make. setup is the time
// spent in constructors before the first shot.
func runPoint(ctx context.Context, p point) (o outcome, setup time.Duration, err error) {
	t0 := time.Now()
	switch p.Kind {
	case kindSurface:
		e, err := surface.New(p.Surface)
		if err != nil {
			return o, 0, err
		}
		setup = time.Since(t0)
		r, err := e.RunContext(ctx, p.Shots, p.Seed, workers)
		return surfaceOutcome(r), setup, err
	case kindUEC:
		e, err := uec.New(p.UEC)
		if err != nil {
			return o, 0, err
		}
		setup = time.Since(t0)
		r, err := e.RunContext(ctx, p.Shots, p.Seed, workers)
		return uecOutcome(r), setup, err
	case kindPseudo:
		pt, ok, err := uec.PseudothresholdContext(ctx, p.UEC, p.Shots, p.Seed, workers)
		return pseudoOutcome(pt, ok), 0, err
	case kindDistill:
		m := distill.NewModule(p.Distill)
		setup = time.Since(t0)
		return distillOutcome(m.Run(p.Horizon)), setup, nil
	case kindCT:
		r, err := codetelep.EvaluateContext(ctx, p.CT)
		if err != nil {
			return o, 0, err
		}
		return ctOutcome(r), 0, nil
	}
	return o, 0, fmt.Errorf("point %s: unknown kind %d", p.Label, p.Kind)
}

// setupPoint runs only the constructors a point pays before its first
// shot, each in a span when tr is non-nil. Points whose entry point builds
// internally (the pseudothreshold fit, code teleportation) are charged the
// constructors that entry point calls: uec.New per grid point and basis,
// the distillation module and uec.New for both UEC sub-modules.
func setupPoint(tr *tracer, p point) error {
	switch p.Kind {
	case kindSurface:
		sp := tr.begin("surface.new", 0)
		_, err := surface.New(p.Surface)
		tr.end(sp)
		return err
	case kindDistill:
		sp := tr.begin("distill.new", 0)
		distill.NewModule(p.Distill)
		tr.end(sp)
	case kindCT:
		sp := tr.begin("distill.new", 0)
		distill.NewModule(ctDistillConfig(p.CT))
		tr.end(sp)
	}
	for _, up := range uecParamsOf(p) {
		sp := tr.begin("uec.new", 0)
		_, err := uec.New(up)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

// uecParamsOf lists the UEC experiments a point constructs, in call order.
func uecParamsOf(p point) []uec.Params {
	var ps []uec.Params
	switch p.Kind {
	case kindUEC:
		ps = append(ps, p.UEC)
	case kindPseudo:
		for _, p2 := range pseudoGrid {
			for _, basis := range []byte{'Z', 'X'} {
				ps = append(ps, pseudoParams(p.UEC, p2, basis))
			}
		}
	case kindCT:
		for _, side := range ctSides(p.CT) {
			for _, basis := range []byte{'Z', 'X'} {
				ps = append(ps, ctUECParams(p.CT, side, basis))
			}
		}
	}
	return ps
}
