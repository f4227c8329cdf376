package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"syscall"
	"time"

	"hetarch/internal/decoder"
)

// Set-up is measured cold, in fresh child processes, as a CLI user pays
// it: process-wide caches such as the lookup-table cache start empty. A
// run starts children one after another until it has at least minChildren
// and they took childBudget, or it has maxChildren; small set-ups thus get
// more samples for their median.
const (
	minChildren  = 5
	maxChildren  = 25
	childBudget  = 2 * time.Second
	childTimeout = 60 * time.Second
)

// passResult is one untraced pass over a workload's grid.
type passResult struct {
	outs  []outcome
	sweep []time.Duration // per point, the sweep without its constructors
	wall  time.Duration   // the sweep without its constructors
	total time.Duration   // the whole pass
	work  int64           // shots or sched events, per the workload
	alloc uint64          // bytes allocated during the pass
}

// untracedPass runs every point through the public entry points.
func untracedPass(ctx context.Context, w workload, pts []point) (passResult, error) {
	runtime.GC()
	ms := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(ms)
	alloc0 := ms[0].Value.Uint64()
	work0 := w.Work()
	start := time.Now()
	var setup time.Duration
	pr := passResult{outs: make([]outcome, len(pts)), sweep: make([]time.Duration, len(pts))}
	for i, p := range pts {
		t0 := time.Now()
		o, s, err := runPoint(ctx, p)
		if err != nil {
			return pr, fmt.Errorf("%s: %w", p.Label, err)
		}
		pr.outs[i] = o
		pr.sweep[i] = time.Since(t0) - s
		setup += s
	}
	pr.total = time.Since(start)
	metrics.Read(ms)
	pr.alloc = ms[0].Value.Uint64() - alloc0
	pr.wall = pr.total - setup
	pr.work = w.Work() - work0
	return pr, nil
}

// peakRSS returns the process's peak resident set size so far, in bytes
// (Linux reports getrusage's maxrss in KiB).
func peakRSS() (uint64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return uint64(ru.Maxrss) << 10, nil
}

// passesLeft reports whether another pass of the average length fits in
// the window.
func passesLeft(start time.Time, passes int, window time.Duration) bool {
	el := time.Since(start)
	return el+el/time.Duration(passes) <= window
}

// measure runs untraced passes for the window and reports the end-to-end
// metrics. Times are sums over points of each point's median: wall_s over
// passes, setup_s over cold children. A burst of load on the shared host
// then moves one point's sample, not the estimate.
func measure(ctx context.Context, w workload, seed int64, window time.Duration, ref reference, log io.Writer) (result, error) {
	pts := w.Grid(seed, defaultScale)
	children, err := runSetupChildren(ctx, w, seed, false)
	if err != nil {
		return result{}, err
	}
	chk := newChecker(w.Name, seed, ref)
	res := result{Correct: true}
	var walls, allocs []float64
	sweeps := make([][]float64, len(pts)) // per point, one entry per pass
	var work int64
	start := time.Now()
	for passes := 1; ; passes++ {
		pr, err := untracedPass(ctx, w, pts)
		if err != nil {
			return result{}, err
		}
		n, fails := chk.check(pts, pr.outs)
		res.account(n, fails, log)
		walls = append(walls, pr.wall.Seconds())
		for i, d := range pr.sweep {
			sweeps[i] = append(sweeps[i], d.Seconds())
		}
		work = pr.work
		allocs = append(allocs, float64(pr.alloc)/(1<<20))
		if !passesLeft(start, passes, window) {
			break
		}
	}
	fmt.Fprintf(log, "paperbench: %s seed %d: %d passes of %d points, pass times %.4g s\n", w.Name, seed, len(walls), len(pts), walls)
	wall := sumOfMedians(sweeps)
	setups := make([][]float64, len(pts))
	for _, c := range children {
		for i, ns := range c.PointsNs {
			setups[i] = append(setups[i], float64(ns)/1e9)
		}
	}
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}
	res.Metrics = map[string]metric{
		"wall_s":       {wall, "s"},
		"setup_s":      {sumOfMedians(setups), "s"},
		"work_per_s":   {float64(work) / wall, "1/s"},
		"alloc_mib":    {median(allocs), "MiB"},
		"peak_rss_mib": {float64(rss) / (1 << 20), "MiB"},
	}
	return res, nil
}

// account adds one pass's check to the result, logging each failure.
func (r *result) account(n int, fails []string, log io.Writer) {
	r.Attempted += n
	r.Failed += len(fails)
	if len(fails) > 0 {
		r.Correct = false
	}
	for _, f := range fails {
		fmt.Fprintln(log, "paperbench: check failed:", f)
	}
}

// childResult is what a set-up child reports.
type childResult struct {
	PointsNs []int64          `json:"points_ns"` // per point, constructor time
	SpansNs  map[string]int64 `json:"spans_ns,omitempty"`
}

// runSetupChild constructs every point's experiments once, cold. With
// traced set, each constructor is a span, and every distinct lookup table
// the grid needs is then rebuilt on its own, uncached, to time the build.
func runSetupChild(w workload, seed int64, traced bool) (childResult, error) {
	pts := w.Grid(seed, defaultScale)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	c := childResult{PointsNs: make([]int64, len(pts))}
	for i, p := range pts {
		t0 := time.Now()
		if err := setupPoint(tr, p); err != nil {
			return childResult{}, fmt.Errorf("%s: %w", p.Label, err)
		}
		c.PointsNs[i] = int64(time.Since(t0))
	}
	if !traced {
		return c, nil
	}
	seen := map[string]bool{}
	for _, p := range pts {
		for _, up := range uecParamsOf(p) {
			checks, _ := uecMasks(up)
			key := fmt.Sprint(up.Code.N, checks)
			if seen[key] {
				continue
			}
			seen[key] = true
			sp := tr.begin("decoder.lookup.build", 0)
			decoder.NewLookup(up.Code.N, checks)
			tr.end(sp)
		}
	}
	prof := newProfile()
	prof.fold(tr)
	c.SpansNs = map[string]int64{}
	for _, n := range []string{"surface.new", "uec.new", "distill.new", "decoder.lookup.build"} {
		c.SpansNs[n] = prof.total(n)
	}
	return c, nil
}

// runSetupChildren runs set-up children one after another and collects
// their reports.
func runSetupChildren(ctx context.Context, w workload, seed int64, traced bool) ([]childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var out []childResult
	start := time.Now()
	for len(out) < maxChildren && (len(out) < minChildren || time.Since(start) < childBudget) {
		var c childResult
		cctx, cancel := context.WithTimeout(ctx, childTimeout)
		cmd := exec.CommandContext(cctx, exe, "-setup-child", "-workload", w.Name,
			"-seed", strconv.FormatInt(seed, 10), "-trace", trace)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		if err := json.Unmarshal(lastLine(b), &c); err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		out = append(out, c)
	}
	return out, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// writeReference recomputes the digests of one pass of every workload at
// both reference seeds and writes them as reference.json.
func writeReference(ctx context.Context, path string) error {
	ref := reference{}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		byName := map[string]refDigests{}
		for _, w := range workloads {
			pts := w.Grid(seed, defaultScale)
			pr, err := untracedPass(ctx, w, pts)
			if err != nil {
				return err
			}
			for i, p := range pts {
				if err := invariant(p, pr.outs[i]); err != nil {
					return fmt.Errorf("seed %d: %s: %w", seed, p.Label, err)
				}
			}
			byName[w.Name] = digests(w.Name, seed, pts, pr.outs)
		}
		ref[strconv.FormatInt(seed, 10)] = byName
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sumOfMedians sums the medians of the groups.
func sumOfMedians(groups [][]float64) float64 {
	var s float64
	for _, g := range groups {
		s += median(g)
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
