// Fabric wiring for the CLI: the shared experiment-runner table (used by
// the main runner and by `hetarch worker`'s control-flow replay), the
// worker subcommand, and the ledger-envelope conversion of coordinator
// stats.
package main

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetarch/internal/core"
	"hetarch/internal/experiments"
	"hetarch/internal/fabric"
	"hetarch/internal/mc"
	"hetarch/internal/obs/ledger"
	"hetarch/internal/obs/runlog"
)

// buildRunners maps experiment names to their runner closures. The same
// table serves the local runner, the fabric coordinator (whose ctx carries
// the coordinator Remote), and the fabric worker's lockstep replay (whose
// ctx carries the worker Remote and whose stdout is discarded).
func buildRunners(ctx context.Context, sc experiments.Scale, seed int64, workers int,
	stdout, stderr io.Writer, emit func(func() (*experiments.Table, error)) func() error,
	charStore core.CharacterizationStore) map[string]func() error {
	return map[string]func() error{
		"devices": func() error { experiments.Table1(stdout); return nil },
		"cells":   func() error { return experiments.Table2(stdout, charStore) },
		"fig3":    emit(func() (*experiments.Table, error) { return experiments.Fig3(ctx, sc, seed) }),
		"fig4":    emit(func() (*experiments.Table, error) { return experiments.Fig4(ctx, sc, seed) }),
		"fig6":    emit(func() (*experiments.Table, error) { return experiments.Fig6(ctx, sc, seed) }),
		"fig7":    emit(func() (*experiments.Table, error) { return experiments.Fig7(ctx, sc, seed) }),
		"fig9":    emit(func() (*experiments.Table, error) { return experiments.Fig9(ctx, sc, seed) }),
		"table3":  emit(func() (*experiments.Table, error) { return experiments.Table3(ctx, sc, seed) }),
		"fig12":   emit(func() (*experiments.Table, error) { return experiments.Fig12(ctx, sc, seed) }),
		"table4":  emit(func() (*experiments.Table, error) { return experiments.Table4(ctx, sc, seed) }),
		"dse": emit(func() (*experiments.Table, error) {
			r, err := experiments.DSE(ctx, experiments.DSEOptions{Workers: workers, Store: charStore})
			if err != nil {
				return nil, err
			}
			// Cache accounting differs between cold and warm runs; it is
			// telemetry, so it goes to stderr and stdout stays bit-identical
			// across cache states.
			r.FprintDSEStats(stderr)
			return r.Table(), nil
		}),
		"devstudy": emit(func() (*experiments.Table, error) { return experiments.DeviceStudy(ctx, sc, seed) }),
		"capacity": emit(func() (*experiments.Table, error) { return experiments.CapacitySweep(ctx, sc, seed) }),
		"protocol": func() error { return experiments.ProtocolCheck(stdout, seed) },
	}
}

// coordinatorStats converts the coordinator's fabric snapshot into the
// ledger envelope's cluster-composition record.
func coordinatorStats(coord *fabric.Coordinator) *ledger.FabricStats {
	st := coord.Stats()
	return &ledger.FabricStats{
		Role:             "coordinator",
		Addr:             st.Addr,
		Workers:          st.Workers,
		LeasesGranted:    st.LeasesGranted,
		LeasesExpired:    st.LeasesExpired,
		TalliesAccepted:  st.TalliesAccepted,
		TallyDupsDropped: st.TallyDupsDropped,
		LocalShards:      st.LocalShards,
	}
}

// workerJitterSeed hashes the worker identity into the deterministic
// backoff-jitter seed, so two workers never share a retry schedule.
func workerJitterSeed(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// testWorkerTransport lets the in-process chaos tests wrap a worker's HTTP
// transport with a chaos.NetInjector. nil means http.DefaultTransport.
var testWorkerTransport = func(id string) http.RoundTripper { return nil }

// testCoordinatorTune lets the in-process chaos tests adjust coordinator
// timing (notably LocalDelay, so a loaded test host can't race the local
// fallback past the workers before they finish starting up).
var testCoordinatorTune = func(o *fabric.CoordinatorOptions) {}

// workerMain is the `hetarch worker` subcommand: join a coordinator, adopt
// its job spec, and replay the experiment's control flow with the worker
// Remote installed — leasing shard ranges, executing them, and shipping
// tallies back until the sweep completes. SIGTERM drains gracefully: the
// current shard finishes, its range's completed prefix is submitted, and
// the process exits cleanly (code 0).
func workerMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hetarch worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: hetarch worker -connect ADDR [-id NAME] [-workers N] [-log-format text|json] [-ledger-dir DIR]")
		fs.PrintDefaults()
	}
	connect := fs.String("connect", "", "coordinator `addr` (host:port) to lease shard ranges from (required)")
	id := fs.String("id", "", "worker identity reported to the coordinator (default hostname-pid)")
	workers := fs.Int("workers", 0, "Monte Carlo worker goroutines for leased shards (0 = NumCPU; never affects results)")
	logFormat := fs.String("log-format", runlog.FormatText, "structured event-log format on stderr: text or json")
	ledgerDir := fs.String("ledger-dir", "", "append this worker's envelope to the run ledger in `dir` (default $HETARCH_LEDGER_DIR, then ~/.hetarch; \"off\" disables)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *connect == "" {
		fmt.Fprintln(stderr, "hetarch: worker: -connect is required")
		fs.Usage()
		return exitUsage
	}
	if *workers < 0 {
		fmt.Fprintf(stderr, "hetarch: worker: -workers must be >= 0, got %d\n", *workers)
		return exitUsage
	}
	if *logFormat != runlog.FormatText && *logFormat != runlog.FormatJSON {
		fmt.Fprintf(stderr, "hetarch: worker: -log-format must be %q or %q, got %q\n", runlog.FormatText, runlog.FormatJSON, *logFormat)
		return exitUsage
	}
	if *id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	// SIGTERM/SIGINT cancel the context; the engine additionally drains so
	// the in-flight shard finishes and its tallies are submitted before
	// exit.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	client := fabric.NewClient(*connect, workerJitterSeed(*id), testWorkerTransport(*id))
	job, err := client.WaitJob(ctx, *id, 0)
	if err != nil {
		if ctx.Err() != nil {
			return exitOK // told to stop before a job appeared: clean exit
		}
		fmt.Fprintln(stderr, "hetarch: worker:", err)
		return exitError
	}
	if job.State == fabric.JobDone {
		return exitOK
	}
	spec := job.Spec

	// The worker mints its own run identity (ledger provenance) but adopts
	// the job's seed for the replay; the id hash keeps two workers minting
	// in the same millisecond distinct.
	runID := runlog.MintID(spec.Seed ^ int64(workerJitterSeed(*id)))
	lg, lerr := runlog.New(stderr, *logFormat, runID)
	if lerr != nil {
		fmt.Fprintln(stderr, "hetarch: worker:", lerr)
		return exitUsage
	}
	runlog.Set(lg)
	defer runlog.Set(nil)
	fabric.AnnounceWorker(*id, spec)

	eng := fabric.NewWorkerEngine(*id, client)
	go func() {
		<-ctx.Done()
		eng.Draining.Store(true)
	}()

	start := time.Now()
	replayErr := workerReplay(ctx, eng, spec, *workers)
	drained := replayErr != nil && ctx.Err() != nil
	fabric.AnnounceWorkerDone(*id, replayErr)

	// The worker's ledger envelope records its share of the sweep: which
	// job it joined (the coordinator's run ID as resumed_from-style
	// provenance would be wrong — it is the job, so it goes in Args), how
	// its client behaved, and the outcome.
	status := ledger.StatusOK
	switch {
	case drained:
		status = ledger.StatusInterrupted
	case replayErr != nil:
		status = ledger.StatusError
	}
	appendWorkerEnvelope(stderr, lg, *ledgerDir, ledger.Envelope{
		RunID:       runID,
		Tool:        "hetarch",
		Experiment:  spec.Experiment,
		Scale:       spec.Scale,
		Seed:        spec.Seed,
		Shots:       spec.Shots,
		Workers:     mc.ResolveWorkers(*workers),
		Args:        append([]string{"worker", "-connect", *connect, "-id", *id}, "job:"+spec.RunID),
		StartedAt:   start.UTC().Format(time.RFC3339Nano),
		EndedAt:     time.Now().UTC().Format(time.RFC3339),
		WallSeconds: time.Since(start).Seconds(),
		Status:      status,
		Fabric: &ledger.FabricStats{
			Role:    "worker",
			Addr:    *connect,
			Retries: client.RetriesDone(),
		},
	}, replayErr)

	if drained {
		// SIGTERM semantics: completed work is submitted, exit is clean.
		return exitOK
	}
	if replayErr != nil {
		fmt.Fprintln(stderr, "hetarch: worker:", replayErr)
		return exitError
	}
	return exitOK
}

// appendWorkerEnvelope opens the ledger with the CLI's usual resolution
// (explicit dir = error on failure, default dir = warning) and appends the
// worker's envelope.
func appendWorkerEnvelope(stderr io.Writer, lg *slog.Logger, dirFlag string, e ledger.Envelope, replayErr error) {
	dir, enabled, explicit := dirFlag, true, dirFlag != ""
	if !explicit {
		dir, enabled = ledger.DefaultDir()
	} else if dir == ledger.Off {
		enabled = false
	}
	if !enabled {
		return
	}
	led, err := ledger.Open(dir)
	if err != nil {
		if explicit {
			fmt.Fprintln(stderr, "hetarch: worker: ledger-dir:", err)
		} else {
			lg.Warn(runlog.EvLedgerDisabled, "error", err.Error())
		}
		return
	}
	defer led.Close()
	if replayErr != nil {
		e.Error = replayErr.Error()
	}
	if err := led.Append(e); err != nil {
		fmt.Fprintln(stderr, "hetarch: worker: ledger:", err)
	}
}

// workerReplay executes the job's experiment control flow with the worker
// engine installed. Output tables go to io.Discard — the coordinator owns
// the run's stdout — but the replay itself is what keeps the worker's run
// numbering and adaptive control-flow decisions in lockstep with the
// coordinator's.
func workerReplay(ctx context.Context, eng *fabric.WorkerEngine, spec fabric.JobSpec, workers int) error {
	sc := experiments.Full()
	if spec.Scale == "quick" {
		sc = experiments.Quick()
	}
	if spec.Shots > 0 {
		sc.Shots = spec.Shots
	}
	sc.Workers = workers

	wctx := mc.WithRemote(ctx, eng)
	sink := io.Discard
	emit := tablePrinter(sink)
	runners := buildRunners(wctx, sc, spec.Seed, workers, sink, sink, emit, nil)
	if spec.Experiment == "all" {
		for _, n := range allOrder {
			if err := runners[n](); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	r, ok := runners[spec.Experiment]
	if !ok {
		return fmt.Errorf("job spec names unknown experiment %q (version drift between coordinator and worker?)", spec.Experiment)
	}
	return r()
}
