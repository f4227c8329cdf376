// Command benchbaseline records the repository's performance baseline:
// wall time, Monte Carlo throughput (shots/sec), and per-shot cost
// (ns/shot, allocs/shot, bytes/shot from runtime.ReadMemStats deltas) of
// the quick-scale fig9 and table3 experiments and of one pinned d = 13
// surface-code point (surface-d13, the union-find decode path), written as
// JSON to BENCH_baseline.json. Shot-shaped experiments additionally record
// steady_allocs_per_shot — allocations of a warm repeated run with
// construction excluded — which the zero-alloc gate (cmd/benchtrend
// -max-allocs) pins at 0. The artifact carries the git revision it was
// measured at, so a series of them (cmd/benchtrend) reads as a performance
// trajectory instead of anecdotes.
//
// Usage:
//
//	go run ./cmd/benchbaseline [-o BENCH_baseline.json] [-seed N] [-workers N] [-ledger-dir DIR]
//
// Like cmd/hetarch, every invocation mints a run ID (stamped into the
// baseline's run_id field) and journals an envelope to the run ledger, so
// `hetarch runs show` can trace a bench number back to the exact
// invocation — and verify the artifact's digest — months later. Pass
// -ledger-dir off (or HETARCH_LEDGER_DIR=off) to opt out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hetarch/internal/bench"
	"hetarch/internal/experiments"
	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
	"hetarch/internal/qec"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

func main() {
	out := flag.String("o", "BENCH_baseline.json", "output file")
	seed := flag.Int64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", 0, "Monte Carlo worker goroutines (0 = NumCPU)")
	ledgerDir := flag.String("ledger-dir", "", `run-ledger directory (default $HETARCH_LEDGER_DIR, then ~/.hetarch; "off" disables)`)
	flag.Parse()

	startedAt := time.Now().UTC()
	runID := runlog.MintID(*seed)

	sc := experiments.Quick()
	sc.Workers = *workers
	ctx := context.Background()
	// surface-d13 is one Fig. 7 point (d = 13, T_CD/T_CA = 1, Z basis) at a
	// fixed shot count: the quick-scale sweeps stop at small distances, so
	// without it the trend would not cover union-find decoding. The
	// experiment is built once, outside the timed runs.
	surf, err := surface.New(surface.DefaultParams(13))
	if err != nil {
		fatal(err)
	}
	runners := []struct {
		name   string
		scale  string
		run    func()
		steady func(seed int64) float64 // steady-state allocs/shot, nil = not measured
	}{
		{"fig9", "quick", func() {
			if _, err := experiments.Fig9(ctx, sc, *seed); err != nil {
				fatal(err)
			}
		}, steadyUEC(ctx, qec.Steane(), true, false)},
		{"table3", "quick", func() {
			if _, err := experiments.Table3(ctx, sc, *seed); err != nil {
				fatal(err)
			}
		}, steadyUEC(ctx, qec.TriColor5(), false, false)},
		// dse is characterization-shaped, not shot-shaped: its entry records
		// wall time of a cold in-memory sweep (shots stay 0), anchoring the
		// warm-vs-cold cache benchmarks in bench_test.go.
		{"dse", "quick", func() {
			if _, err := experiments.DSE(ctx, experiments.DSEOptions{Workers: sc.Workers}); err != nil {
				fatal(err)
			}
		}, nil},
		{"surface-d13", "pinned", func() {
			if _, err := surf.RunContext(ctx, surfaceShots, *seed, sc.Workers); err != nil {
				fatal(err)
			}
		}, nil},
	}

	b := bench.Baseline{
		RunID:      runID,
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Workers:    mc.ResolveWorkers(*workers),
	}
	b.GitRevision, b.GitDirty = bench.VCSRevision()
	for _, r := range runners {
		// Warm shared caches (lookup tables) so the measurement reflects
		// steady-state throughput, then count shots via the obs registry and
		// allocations via ReadMemStats deltas around the timed run. The run
		// is deterministic, so its true cost is the fastest of a few
		// repetitions — scheduler and GC interference only ever add time —
		// and best-of-N keeps the quick-scale window (~10 ms) from recording
		// a noise spike as a trend.
		r.run()
		var e bench.Entry
		bestWall := 0.0
		for rep := 0; rep < benchReps; rep++ {
			before := shots()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			r.run()
			wall := time.Since(start).Seconds()
			runtime.ReadMemStats(&m1)
			n := shots() - before
			if rep > 0 && wall >= bestWall {
				continue
			}
			bestWall = wall
			e = bench.Entry{
				Experiment:  r.name,
				Scale:       r.scale,
				Shots:       n,
				WallSeconds: round(wall),
				ShotsPerSec: round(float64(n) / wall),
			}
			if n > 0 {
				e.NsPerShot = round(wall * 1e9 / float64(n))
				e.AllocsPerShot = round(float64(m1.Mallocs-m0.Mallocs) / float64(n))
				e.BytesPerShot = round(float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n))
			}
		}
		steadyNote := ""
		if r.steady != nil {
			sa := round(r.steady(*seed))
			e.SteadyAllocsPerShot = &sa
			steadyNote = fmt.Sprintf(", %.3f steady allocs/shot", sa)
		}
		b.Entries = append(b.Entries, e)
		fmt.Fprintf(os.Stderr, "%s: %d shots in %.2fs (%.0f shots/sec, %.0f ns/shot, %.2f allocs/shot%s)\n",
			r.name, e.Shots, e.WallSeconds, e.ShotsPerSec, e.NsPerShot, e.AllocsPerShot, steadyNote)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "wrote", *out)
	appendLedger(*ledgerDir, runID, &b, *out, *seed, startedAt)
}

// appendLedger journals the invocation to the run ledger: tool
// "benchbaseline", the baseline file as a digested "bench" artifact. The
// ledger is provenance, not results — any failure here is reported but
// never fails the command, unless the user explicitly chose the directory
// and it cannot be opened.
func appendLedger(dirFlag, runID string, b *bench.Baseline, out string, seed int64, startedAt time.Time) {
	dir, explicit := dirFlag, dirFlag != ""
	if dir == ledger.Off {
		return
	}
	if !explicit {
		var ok bool
		if dir, ok = ledger.DefaultDir(); !ok {
			return
		}
	}
	led, err := ledger.Open(dir)
	if err != nil {
		if explicit {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "benchbaseline: warning:", err)
		return
	}
	defer led.Close()
	e := ledger.Envelope{
		RunID:       runID,
		Tool:        "benchbaseline",
		Seed:        seed,
		Workers:     b.Workers,
		Args:        os.Args[1:],
		GoVersion:   b.GoVersion,
		GitRevision: b.GitRevision,
		GitDirty:    b.GitDirty,
		StartedAt:   startedAt.Format(time.RFC3339Nano),
		EndedAt:     time.Now().UTC().Format(time.RFC3339),
		WallSeconds: round(time.Since(startedAt).Seconds()),
		Status:      ledger.StatusOK,
	}
	a, aerr := ledger.FileArtifact("bench", out)
	if aerr != nil {
		fmt.Fprintln(os.Stderr, "benchbaseline: warning: digest", out+":", aerr)
	}
	e.Artifacts = append(e.Artifacts, a)
	if err := led.Append(e); err != nil {
		fmt.Fprintln(os.Stderr, "benchbaseline: warning:", err)
	}
}

// benchReps is the best-of-N repetition count for the timed runs.
const benchReps = 3

// surfaceShots is the pinned shot count of the surface-d13 entry.
const surfaceShots = 2048

// steadyAllocShots sizes the steady-state measurement run: large enough
// that the per-run worker setup (a few dozen allocations) amortizes below
// the 3-decimal rounding of the artifact, so a genuinely allocation-free
// hot path records 0.000 — while one allocation per 64-shot batch would
// still surface as ~0.016.
const steadyAllocShots = 1 << 19

// steadyUEC returns a closure measuring the steady-state allocations per
// shot of the UEC module hot path on the given code at Ts = 50 ms: the
// experiment is constructed and warmed up first, so the measured run sees
// only the bit-parallel sample + sparse transpose + lookup-decode loop
// (plus amortized worker setup) — construction is excluded by design.
// Serial (one worker) so scheduler allocations never pollute the count.
func steadyUEC(ctx context.Context, code *qec.Code, het, native bool) func(seed int64) float64 {
	return func(seed int64) float64 {
		p := uec.DefaultParams(code, 50, het)
		p.NativePlacement = native
		e, err := uec.New(p)
		if err != nil {
			fatal(err)
		}
		if _, err := e.RunContext(ctx, steadyAllocShots/8, seed, 1); err != nil { // warm-up: grow all arenas
			fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err = e.RunContext(ctx, steadyAllocShots, seed, 1)
		runtime.ReadMemStats(&m1)
		if err != nil {
			fatal(err)
		}
		return float64(m1.Mallocs-m0.Mallocs) / float64(steadyAllocShots)
	}
}

// shots totals every logical-shot counter, mirroring cmd/hetarch -progress.
func shots() int64 {
	return obs.Default.Snapshot().SumCounters(func(name string) bool {
		return strings.HasSuffix(name, ".shots")
	})
}

func round(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchbaseline:", err)
	os.Exit(1)
}
