package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"
)

// exactCounts are the machine-independent work counts of one traced pass.
// They must repeat exactly for one seed.
type exactCounts struct {
	batches, shards, events int64
	defects, ufDecodes      int64
	lookupDecodes, uecShots int64
}

// tracedPass is one traced replay of a workload's grid.
type tracedPass struct {
	outs                []outcome
	dur                 time.Duration
	counts              exactCounts
	cnt                 *replayCounts
	gcCycles, gcPauseNs int64
	maxDepth            float64
}

// runTracedPass replays every point with spans recorded into tr, which it
// resets first.
func runTracedPass(ctx context.Context, tr *tracer, pts []point) (tracedPass, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b0, e0 := stabBatches.Value(), schedEvents.Value()
	schedDepth.Set(0)
	tr.reset()
	rp := newReplay(tr)
	tp := tracedPass{outs: make([]outcome, len(pts)), cnt: rp.cnt}
	t0 := time.Now()
	for i, p := range pts {
		o, err := rp.point(ctx, p)
		if err != nil {
			return tp, fmt.Errorf("replay %s: %w", p.Label, err)
		}
		tp.outs[i] = o
	}
	tp.dur = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	tp.gcCycles = int64(ms1.NumGC - ms0.NumGC)
	tp.gcPauseNs = int64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	tp.maxDepth = schedDepth.Value()
	tp.counts = exactCounts{
		batches: stabBatches.Value() - b0, events: schedEvents.Value() - e0,
		defects: rp.cnt.totalDefects(), ufDecodes: rp.cnt.ufDecodes,
		lookupDecodes: rp.cnt.lookupDecodes, uecShots: rp.cnt.uecShots,
	}
	for _, s := range tr.spans {
		if s.name == "mc.shard" {
			tp.counts.shards++
		}
	}
	return tp, nil
}

// measureTraced alternates untraced passes and traced replays for the
// window. The first untraced pass is the fidelity reference: every replay
// must reproduce its outcomes bit for bit. Per-layer metrics come from the
// replays' spans.
func measureTraced(ctx context.Context, w workload, seed int64, window time.Duration, ref reference, log io.Writer) (result, error) {
	pts := w.Grid(seed, defaultScale)
	children, err := runSetupChildren(ctx, w, seed, true)
	if err != nil {
		return result{}, err
	}
	chk := newChecker(w.Name, seed, ref)
	res := result{Correct: true}
	tr := newTracer()
	prof := newProfile()
	cnt := newReplayCounts()
	var (
		base                []outcome
		untraced, traced    []float64 // pass wall, s
		tracedNs            int64
		gcCycles, gcPauseNs int64
		maxDepth            float64
		first               *exactCounts
	)
	start := time.Now()
	for passes := 1; ; passes++ {
		if passes%2 == 1 {
			pr, err := untracedPass(ctx, w, pts)
			if err != nil {
				return result{}, err
			}
			n, fails := chk.check(pts, pr.outs)
			res.account(n, fails, log)
			if base == nil {
				base = pr.outs
			}
			untraced = append(untraced, pr.total.Seconds())
		} else {
			tp, err := runTracedPass(ctx, tr, pts)
			if err != nil {
				return result{}, err
			}
			var fails []string
			for i, p := range pts {
				if !tp.outs[i].equal(base[i]) {
					fails = append(fails, "replay "+p.Label+": outcome differs from the untraced run")
				}
			}
			res.account(len(pts), fails, log)
			traced = append(traced, tp.dur.Seconds())
			tracedNs += int64(tp.dur)
			gcCycles += tp.gcCycles
			gcPauseNs += tp.gcPauseNs
			maxDepth = max(maxDepth, tp.maxDepth)
			prof.fold(tr)
			cnt.add(tp.cnt)
			if first == nil {
				first = &tp.counts
			} else if tp.counts != *first {
				res.account(0, []string{fmt.Sprintf("exact counts changed between replays: %+v then %+v", *first, tp.counts)}, log)
			}
		}
		if passes >= 2 && !passesLeft(start, passes, window) {
			break
		}
	}
	fmt.Fprintf(log, "paperbench: %s seed %d: %d untraced and %d traced passes\n", w.Name, seed, len(untraced), len(traced))
	prof.write(log, tracedNs)

	nt := float64(len(traced))
	wall := float64(tracedNs)
	setupMs := func(span string) float64 {
		v := make([]float64, len(children))
		for i, c := range children {
			v[i] = float64(c.SpansNs[span]) / 1e6
		}
		return median(v)
	}
	sample := float64(prof.total("stabsim.sample"))
	uf := float64(prof.total("decoder.uf"))
	lookup := float64(prof.total("decoder.lookup"))
	distillRun := float64(prof.total("distill.run"))
	mcRun := float64(prof.total("mc.run"))
	mcSelf := float64(prof.self("mc.run"))
	mcShots := float64(cnt.surfaceShots + cnt.uecShots)
	layerSelf := func(layer string, tag int32) float64 {
		return float64(prof.self(layer+".run") + prof.self(layer+".worker") + prof.taggedSelf("mc.shard", tag))
	}
	events := float64(first.events)
	res.Metrics = map[string]metric{
		"stabsim.sample_ns_per_shot":      {ratio(sample, mcShots), "ns/shot"},
		"stabsim.share":                   {sample / wall, "frac"},
		"stabsim.batches":                 {float64(first.batches), "count"},
		"decoder.uf.ns_per_shot":          {ratio(uf, float64(cnt.ufDecodes)), "ns/shot"},
		"decoder.uf.share":                {uf / wall, "frac"},
		"decoder.uf.defects_per_shot":     {ratio(float64(first.defects), float64(first.ufDecodes)), "defects/shot"},
		"decoder.uf.ns_per_defect.d5":     {ratio(float64(prof.tagged("decoder.uf", 5)), float64(cnt.defects[5])), "ns/defect"},
		"decoder.uf.ns_per_defect.d13":    {ratio(float64(prof.tagged("decoder.uf", 13)), float64(cnt.defects[13])), "ns/defect"},
		"decoder.lookup.ns_per_decode":    {ratio(lookup, float64(cnt.lookupDecodes)), "ns/decode"},
		"decoder.lookup.decodes_per_shot": {ratio(float64(first.lookupDecodes), float64(first.uecShots)), "decodes/shot"},
		"decoder.lookup.build_ms":         {setupMs("decoder.lookup.build"), "ms"},
		"uec.new_ms":                      {setupMs("uec.new"), "ms"},
		"surface.new_ms":                  {setupMs("surface.new"), "ms"},
		"uec.self_ns_per_shot":            {ratio(layerSelf("uec", tagUEC), float64(cnt.uecShots)), "ns/shot"},
		"surface.self_ns_per_shot":        {ratio(layerSelf("surface", tagSurface), float64(cnt.surfaceShots)), "ns/shot"},
		"mc.shards":                       {float64(first.shards), "count"},
		"mc.overhead_frac":                {ratio(mcSelf, mcRun), "frac"},
		"sched.events":                    {events, "count"},
		"sched.max_queue_depth":           {maxDepth, "count"},
		"distill.ns_per_event":            {ratio(distillRun, events*nt), "ns/event"},
		"distill.allocs_per_event":        {ratio(float64(cnt.distillAllocs), events*nt), "allocs/event"},
		"distill.share":                   {distillRun / wall, "frac"},
		"codetelep.catgen_ms":             {float64(prof.total("codetelep.catgen")) / nt / 1e6, "ms"},
		"codetelep.self_ms":               {float64(prof.self("codetelep.evaluate")) / nt / 1e6, "ms"},
		"gc.cycles":                       {float64(gcCycles) / nt, "count"},
		"gc.pause_ms":                     {float64(gcPauseNs) / nt / 1e6, "ms"},
		"unattributed_frac":               {1 - float64(prof.root)/wall, "frac"},
		"trace_overhead_frac":             {median(traced)/median(untraced) - 1, "frac"},
	}
	return res, nil
}

// ratio is a/b, or 0 when the workload does no work of kind b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
