// Command paperbench is the repository's benchmark. It drives the paper's
// three costly sweeps — the surface-code Figs. 6 and 7, the UEC Fig. 9 and
// Table 3, and the Fig. 4 distillation plus Table 4 code-teleportation
// sweep — through the program's public entry points, checks every point's
// output, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics from a traced replay). The last line of standard output is one
// JSON object. See README.md for the metrics and workloads.
//
//	go run . -workload surface-sweep -seed 1 -seconds 30 -trace 0
//	go run . -workload all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "surface-sweep, uec-sweep, ct-distill, or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed: generates every point's shots and Monte Carlo seed")
	seconds := fs.Int("seconds", 30, "measurement window per workload, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
	setupChild := fs.Bool("setup-child", false, "measure one cold set-up of the workload and print it as JSON (used by the benchmark itself)")
	writeRef := fs.String("write-reference", "", "recompute the reference digests at the reference seeds and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "paperbench: bad arguments: need -workload NAME [-seed N] [-seconds S>=1] [-trace 0|1]")
		return 2
	}
	ctx := context.Background()

	if *writeRef != "" {
		if err := writeReference(ctx, *writeRef); err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
		return 0
	}

	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 2
		}
		ws = []workload{w}
	}

	if *setupChild {
		c, err := runSetupChild(ws[0], *seed, *traceFlag == 1)
		if err != nil {
			fmt.Fprintln(stderr, "paperbench:", err)
			return 1
		}
		json.NewEncoder(stdout).Encode(c)
		return 0
	}

	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	window := time.Duration(*seconds) * time.Second
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		var res result
		var err error
		if *traceFlag == 1 {
			res, err = measureTraced(ctx, w, *seed, window, ref, stderr)
		} else {
			res, err = measure(ctx, w, *seed, window, ref, stderr)
		}
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: %s: %v\n", w.Name, err)
			return 1
		}
		printSummary(stdout, w.Name, res)
		if len(ws) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[w.Name+"."+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// printSummary writes one human-readable line per metric, then the
// workload's failed fraction.
func printSummary(w io.Writer, name string, r result) {
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "%-14s %-34s %16s %s\n", name, k, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	fmt.Fprintf(w, "%-14s %-34s %16s %s (%d of %d checked items failed)\n", name, "fail_frac",
		strconv.FormatFloat(float64(r.Failed)/float64(max(r.Attempted, 1)), 'g', 6, 64), "frac", r.Failed, r.Attempted)
}
