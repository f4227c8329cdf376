package experiments

import (
	"context"
	"fmt"
	"io"

	"hetarch/internal/cell"
	"hetarch/internal/core"
	"hetarch/internal/device"
	"hetarch/internal/dse"
	dsecache "hetarch/internal/dse/cache"
)

// DSEOptions configures the design-space exploration runner.
type DSEOptions struct {
	// Workers is the sweep engine's goroutine count (<= 0 means
	// runtime.NumCPU()). Results are worker-count independent.
	Workers int
	// Store backs the characterization cache. nil means a fresh in-memory
	// store (every run pays characterization once per distinct cell); a
	// dse/cache.Dir makes characterizations persistent, so warm runs skip
	// density-matrix simulation entirely.
	Store core.CharacterizationStore
}

// DSEResult is a completed design-space exploration: the full swept grid,
// its Pareto front, and the characterization-cache accounting for the run.
type DSEResult struct {
	Results []core.Result
	Front   []core.Result
	Calls   int // characterizations requested (one per grid point)
	Hits    int // requests served from cache or a concurrent in-flight run
}

// dseParams is the swept grid: register storage lifetime and mode count
// (which change the cell, so each distinct pair costs one density-matrix
// characterization) crossed with the idle-window length (an operational
// parameter that reuses the cached channel).
func dseParams() []core.Param {
	return []core.Param{
		{Name: "tsMillis", Values: []float64{0.5, 1, 2.5, 5, 12.5, 25, 50}},
		{Name: "modes", Values: []float64{3, 10}},
		{Name: "idleWindowUs", Values: []float64{1, 5, 10, 50, 100}},
	}
}

// DSE runs the design-space exploration over the distillation module's
// register parameters on the parallel sweep engine, demonstrating the
// paper's simulation-hierarchy payoff: each distinct standard-cell
// configuration is density-matrix-characterized once — in this process or
// any earlier one sharing the same persistent store — and every grid point
// evaluates the module-level metric from the cached channel abstraction.
//
// The swept results and Pareto front are bit-identical for any worker
// count and for any cache state (cold, warm, in-memory): the cache changes
// only where characterizations come from, never what they contain.
func DSE(ctx context.Context, opts DSEOptions) (*DSEResult, error) {
	store := opts.Store
	if store == nil {
		store = core.NewMemStore()
	}
	ch := core.NewCharacterizerWithStore(store)
	// Stats reads the process-wide registry; difference it around the sweep
	// so the reported numbers are this run's own.
	calls0, hits0 := ch.Stats()
	results, err := dse.Sweep(ctx, dseParams(), dse.Config{Workers: opts.Workers}, func(p core.Point) (map[string]float64, error) {
		ts := p["tsMillis"] * 1000
		modes := int(p["modes"])
		reg := cell.NewRegister(device.StandardStorage(ts, modes), device.StandardComputeNoReadout(500), 2)
		char, err := ch.Characterize(dsecache.Key(reg), reg, cell.CharacterizeRegister)
		if err != nil {
			return nil, err
		}
		idle := char.MustOp("idle-1us")
		load := char.MustOp("load")
		// Module-level metric from the channel abstraction only: error of
		// storing a qubit for the idle window (per-µs error compounded)
		// plus one load/store round trip.
		perUs := idle.ErrorRate()
		window := p["idleWindowUs"]
		keep := 1.0
		for i := 0; i < int(window); i++ {
			keep *= 1 - perUs
		}
		total := (1 - keep) + 2*load.ErrorRate()
		return map[string]float64{
			"storedError": total,
			"footprint":   reg.FootprintArea(),
			"capacity":    float64(reg.QubitCapacity()),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	calls1, hits1 := ch.Stats()
	return &DSEResult{
		Results: results,
		Front:   core.ParetoFront(results, []string{"storedError", "footprint"}),
		Calls:   calls1 - calls0,
		Hits:    hits1 - hits0,
	}, nil
}

// Table renders the Pareto front as a standard experiment table, so the
// CLI's text and JSON emitters both work. Only sweep outputs appear here —
// cache statistics vary between cold and warm runs and belong on stderr
// (FprintDSEStats), keeping stdout bit-identical across cache states.
func (r *DSEResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Design-space exploration: Register cell (%d grid points, %d Pareto-optimal)", len(r.Results), len(r.Front)),
		Columns: []string{"storedError", "footprint", "capacity"},
	}
	for _, res := range r.Front {
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("ts=%gms modes=%g win=%gus", res.Point["tsMillis"], res.Point["modes"], res.Point["idleWindowUs"]),
			Values: []float64{
				res.Metrics["storedError"], res.Metrics["footprint"], res.Metrics["capacity"],
			},
		})
	}
	return t
}

// FprintDSEStats reports the run's characterization-cache accounting —
// telemetry, not results, so runners print it to stderr.
func (r *DSEResult) FprintDSEStats(w io.Writer) {
	fmt.Fprintf(w, "dse: %d grid points, %d characterizations requested, %d served from cache (%.0f%%)\n",
		len(r.Results), r.Calls, r.Hits, 100*float64(r.Hits)/float64(r.Calls))
}
