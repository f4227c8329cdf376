package fabric

import (
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/mc/chaos"
	"hetarch/internal/mc/checkpoint"
)

// testRuns is the synthetic experiment control flow: a fixed sequence of
// Tally-shaped runs that both the coordinator and every worker replay.
// Small shard sizes force multi-block decompositions at CI-scale budgets.
func testRuns(seed int64) []mc.Config {
	return []mc.Config{
		{Shots: 500, Seed: seed, ShardSize: 16, Workers: 2},
		{Shots: 300, Seed: seed + 7, ShardSize: 16, Workers: 2},
		{Shots: 130, Seed: seed - 3, ShardSize: 16, Workers: 2},
	}
}

// newRunner is the worker factory shared by every role: a deterministic
// binomial sampler, so any correct execution of a shard produces the same
// tally.
func newRunner(execs *atomic.Int64) func() mc.ShardRunner {
	return func() mc.ShardRunner {
		return func(sh mc.Shard) mc.Tally {
			if execs != nil {
				execs.Add(1)
			}
			rng := sh.RNG()
			var errs int64
			for i := 0; i < sh.Shots; i++ {
				if rng.Float64() < 0.1 {
					errs++
				}
			}
			return mc.Tally{Shots: int64(sh.Shots), Errors: errs}
		}
	}
}

// localResults executes the control flow without any fabric — the ground
// truth every distributed variant must match bit-for-bit.
func localResults(t *testing.T, seed int64) []mc.Tally {
	t.Helper()
	var out []mc.Tally
	for _, cfg := range testRuns(seed) {
		tally, err := mc.RunContext(context.Background(), cfg, newRunner(nil))
		if err != nil {
			t.Fatalf("local run: %v", err)
		}
		out = append(out, tally)
	}
	return out
}

// testOpts returns coordinator options dialed down for fast tests.
func testOpts(spec JobSpec) CoordinatorOptions {
	return CoordinatorOptions{
		Addr:        "127.0.0.1:0",
		Spec:        spec,
		LeaseTTL:    300 * time.Millisecond,
		LeaseShards: 2,
		LocalDelay:  150 * time.Millisecond,
		Poll:        5 * time.Millisecond,
	}
}

// startWorker runs the control flow through a WorkerEngine in a goroutine,
// returning a channel with its per-run results (nil on error/death).
func startWorker(ctx context.Context, id string, seed int64, client *Client, execs *atomic.Int64) <-chan []mc.Tally {
	out := make(chan []mc.Tally, 1)
	go func() {
		eng := NewWorkerEngine(id, client)
		eng.Poll = 5 * time.Millisecond
		wctx := mc.WithRemote(ctx, eng)
		var got []mc.Tally
		for _, cfg := range testRuns(seed) {
			tally, err := mc.RunContext(wctx, cfg, newRunner(execs))
			if err != nil {
				out <- nil
				return
			}
			got = append(got, tally)
		}
		out <- got
	}()
	return out
}

// coordinate runs the control flow through a coordinator, returning its
// per-run results.
func coordinate(ctx context.Context, t *testing.T, coord *Coordinator, seed int64, execs *atomic.Int64) []mc.Tally {
	t.Helper()
	cctx := mc.WithRemote(ctx, coord)
	var got []mc.Tally
	for _, cfg := range testRuns(seed) {
		tally, err := mc.RunContext(cctx, cfg, newRunner(execs))
		if err != nil {
			t.Fatalf("coordinator run: %v", err)
		}
		got = append(got, tally)
	}
	return got
}

// waitWorkers blocks until the coordinator has seen n distinct workers —
// without it, a test's control flow can finish locally before the worker
// goroutines ever make contact (the empty-pool takeover is immediate).
func waitWorkers(t *testing.T, coord *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Workers < n {
		if time.Now().After(deadline) {
			t.Fatalf("workers never connected: %d/%d", coord.Stats().Workers, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func assertTallies(t *testing.T, label string, got, want []mc.Tally) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d runs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: run %d tally %+v != local %+v", label, i, got[i], want[i])
		}
	}
}

// TestFabricBitIdentical: coordinator + 2 healthy workers produce tallies
// bit-identical to a local run, and the workers' lockstep replay observes
// the same merged tallies.
func TestFabricBitIdentical(t *testing.T) {
	const seed = 42
	want := localResults(t, seed)

	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-bitident", Experiment: "test", Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)

	ctx := context.Background()
	w1 := startWorker(ctx, "w1", seed, NewClient(coord.Addr(), 1, nil), nil)
	w2 := startWorker(ctx, "w2", seed, NewClient(coord.Addr(), 2, nil), nil)
	waitWorkers(t, coord, 2)

	got := coordinate(ctx, t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	assertTallies(t, "worker w1", <-w1, want)
	assertTallies(t, "worker w2", <-w2, want)

	st := coord.Stats()
	if st.Workers != 2 {
		t.Errorf("stats workers = %d, want 2", st.Workers)
	}
	if st.TalliesAccepted+st.LocalShards == 0 {
		t.Error("no tallies accepted and no local shards: nothing ran?")
	}
}

// TestFabricNoWorkers: with an empty worker pool the coordinator degrades
// to a plain local run — graceful degradation's limit case.
func TestFabricNoWorkers(t *testing.T) {
	const seed = 7
	want := localResults(t, seed)
	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-noworkers", Experiment: "test", Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)
	got := coordinate(context.Background(), t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	if st := coord.Stats(); st.LocalShards == 0 {
		t.Error("expected local shard execution with no workers")
	}
}

// TestFabricMinWorkersBarrier: with MinWorkers set, the coordinator must
// not fall back to local execution before that many workers have joined —
// a late-starting worker still gets leases on a sweep that would complete
// locally in milliseconds — and a cancelled context aborts a coordinator
// stuck waiting on a barrier no worker ever satisfies.
func TestFabricMinWorkersBarrier(t *testing.T) {
	const seed = 11
	want := localResults(t, seed)

	opts := testOpts(JobSpec{RunID: "t-barrier", Experiment: "test", Seed: seed})
	opts.MinWorkers = 1
	coord, err := StartCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)

	// The worker joins only after a delay that a barrier-less coordinator
	// would have used to finish the whole sweep locally.
	var workerExecs atomic.Int64
	workerDone := make(chan (<-chan []mc.Tally), 1)
	go func() {
		time.Sleep(250 * time.Millisecond)
		client := NewClient(coord.Addr(), 1, nil)
		workerDone <- startWorker(context.Background(), "w-late", seed, client, &workerExecs)
	}()

	got := coordinate(context.Background(), t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	assertTallies(t, "late worker", <-<-workerDone, want)
	if workerExecs.Load() == 0 {
		t.Error("barrier did not hold: the late worker executed no shards")
	}

	// And an unsatisfied barrier must not outlive the context.
	opts = testOpts(JobSpec{RunID: "t-barrier-stuck", Experiment: "test", Seed: seed})
	opts.MinWorkers = 1
	stuck, err := StartCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Shutdown(time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err = stuck.RunTally(ctx, testRuns(seed)[0], newRunner(nil))
	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("barrier-stuck coordinator returned %v, want *mc.PartialError", err)
	}
}

// TestChaosFabricWorkerDeathAndPartition is the issue's headline schedule:
// one worker dies mid-sweep (permanent transport failure), another rides
// out a network partition; the merged result still matches the local run
// bit-for-bit and the lease machinery shows the expected fault handling.
func TestChaosFabricWorkerDeathAndPartition(t *testing.T) {
	const seed = 99
	want := localResults(t, seed)

	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-chaos", Experiment: "test", Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)

	ctx := context.Background()
	// w1 goes silent after its 6th request: mid-sweep death. Its leased
	// ranges expire and are re-granted.
	killed := chaos.NewNet(nil).KillWorkerAfter(6)
	ck := NewClient(coord.Addr(), 1, killed)
	ck.Retries = 1
	ck.BackoffBase = 5 * time.Millisecond
	w1 := startWorker(ctx, "w1", seed, ck, nil)

	// w2 loses requests 4..9 to a partition, then heals; its client's
	// retry/backoff and the lease TTL absorb the outage.
	parted := chaos.NewNet(nil).PartitionFor(4, 6)
	cp := NewClient(coord.Addr(), 2, parted)
	cp.Retries = 8
	cp.BackoffBase = 5 * time.Millisecond
	cp.BackoffCap = 50 * time.Millisecond
	w2 := startWorker(ctx, "w2", seed, cp, nil)
	waitWorkers(t, coord, 2)

	got := coordinate(ctx, t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	if res := <-w2; res != nil {
		// The partitioned worker survived: it must have seen identical
		// merged tallies.
		assertTallies(t, "worker w2", res, want)
	}
	<-w1 // the killed worker errors out; only reap the channel

	if killed.Drops() == 0 {
		t.Error("kill schedule never fired")
	}
	if parted.Drops() == 0 {
		t.Error("partition schedule never fired")
	}
	if st := coord.Stats(); st.Retries != 0 {
		t.Errorf("coordinator-side retries = %d, want 0 (client metric)", st.Retries)
	}
}

// TestChaosFabricDuplicateDelivery: a duplicated tally submission must be
// dropped by the idempotency layer, never double-counted.
func TestChaosFabricDuplicateDelivery(t *testing.T) {
	const seed = 5
	want := localResults(t, seed)

	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-dup", Experiment: "test", Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)

	ctx := context.Background()
	// Duplicate every tally submission the worker ever makes.
	dup := chaos.NewNet(nil)
	for n := 1; n <= 200; n++ {
		dup.DuplicateDelivery(PathTally, n)
	}
	cl := NewClient(coord.Addr(), 3, dup)
	w := startWorker(ctx, "w", seed, cl, nil)
	waitWorkers(t, coord, 1)

	got := coordinate(ctx, t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	assertTallies(t, "worker", <-w, want)

	if dup.Dups() == 0 {
		t.Fatal("duplicate schedule never fired")
	}
	if st := coord.Stats(); st.TallyDupsDropped == 0 {
		t.Errorf("tally_dups_dropped = 0 with %d duplicated deliveries", dup.Dups())
	}
}

// TestChaosFabricDropAndDelay: dropped requests are retried with backoff
// and a delayed response does not corrupt the merge.
func TestChaosFabricDropAndDelay(t *testing.T) {
	const seed = 11
	want := localResults(t, seed)

	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-dropdelay", Experiment: "test", Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)

	ctx := context.Background()
	inj := chaos.NewNet(nil).
		DropRequest(PathLease, 2).
		DropRequest(PathTally, 5).
		DelayResponse(PathRenew, 3, 30*time.Millisecond)
	cl := NewClient(coord.Addr(), 4, inj)
	cl.Retries = 6
	cl.BackoffBase = 5 * time.Millisecond
	w := startWorker(ctx, "w", seed, cl, nil)
	waitWorkers(t, coord, 1)

	got := coordinate(ctx, t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	assertTallies(t, "worker", <-w, want)
	if cl.RetriesDone() == 0 {
		t.Error("dropped requests never produced a retry")
	}
}

// TestFabricCoordinatorResume: a coordinator killed mid-sweep resumes from
// the checkpoint lease log without re-running completed ranges, and the
// final tallies stay bit-identical.
func TestFabricCoordinatorResume(t *testing.T) {
	const seed = 21
	want := localResults(t, seed)
	ckptPath := filepath.Join(t.TempDir(), "fabric.ckpt")
	meta := checkpoint.NewMeta("test", "test", "", seed, 0)

	// Phase 1: run the first sub-run under a coordinator whose context is
	// cancelled mid-run, with the checkpoint attached.
	cp1, err := checkpoint.Open(ckptPath, meta)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOpts(JobSpec{RunID: "t-resume", Experiment: "test", Seed: seed})
	opts.Checkpoint = cp1
	coord1, err := StartCoordinator(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	var phase1Execs atomic.Int64
	cancelAfter := newRunner(&phase1Execs)
	// Cancel after 10 shard executions: mid-run for the 32-shard first run.
	countingRunner := func() mc.ShardRunner {
		inner := cancelAfter()
		return func(sh mc.Shard) mc.Tally {
			t := inner(sh)
			if phase1Execs.Load() >= 10 {
				cancel1()
			}
			return t
		}
	}
	_, err = mc.RunContext(mc.WithRemote(ctx1, coord1), testRuns(seed)[0], countingRunner)
	var pe *mc.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("phase 1: got %v, want *mc.PartialError", err)
	}
	if len(pe.Completed) == 0 || len(pe.Completed) == pe.Shards {
		t.Fatalf("phase 1: completed %d/%d shards, want a strict partial", len(pe.Completed), pe.Shards)
	}
	coord1.Shutdown(0)
	cp1.Close()
	cancel1()

	// Phase 2: a fresh coordinator (new process incarnation) adopts the
	// checkpoint and finishes the whole control flow with one worker.
	cp2, err := checkpoint.Open(ckptPath, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	opts2 := testOpts(JobSpec{RunID: "t-resume-2", Experiment: "test", Seed: seed})
	opts2.Checkpoint = cp2
	coord2, err := StartCoordinator(opts2)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Shutdown(time.Second)

	var phase2Execs atomic.Int64
	ctx := context.Background()
	w := startWorker(ctx, "w", seed, NewClient(coord2.Addr(), 9, nil), &phase2Execs)

	cctx := mc.WithRemote(ctx, coord2)
	var got []mc.Tally
	for _, cfg := range testRuns(seed) {
		tally, err := mc.RunContext(cctx, cfg, newRunner(&phase2Execs))
		if err != nil {
			t.Fatalf("resumed coordinator run: %v", err)
		}
		got = append(got, tally)
	}
	assertTallies(t, "resumed coordinator", got, want)
	assertTallies(t, "worker", <-w, want)

	// The resumed phase must not have re-executed the shards the first
	// incarnation checkpointed: executions across coordinator AND worker
	// stay below the full decomposition.
	totalShards := 0
	for _, cfg := range testRuns(seed) {
		totalShards += len(cfg.Shards())
	}
	if int(phase2Execs.Load()) >= totalShards {
		t.Errorf("resume re-executed everything: %d executions, %d total shards (checkpoint prefill broken)",
			phase2Execs.Load(), totalShards)
	}
}

// TestFabricWorkerDrain: a draining worker submits its completed prefix
// and stops taking leases; the coordinator finishes the sweep alone.
func TestFabricWorkerDrain(t *testing.T) {
	const seed = 33
	want := localResults(t, seed)

	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-drain", Experiment: "test", Seed: seed}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := NewWorkerEngine("w", NewClient(coord.Addr(), 6, nil))
	eng.Poll = 5 * time.Millisecond

	var once sync.Once
	drainAfter := func() mc.ShardRunner {
		inner := newRunner(nil)()
		n := 0
		return func(sh mc.Shard) mc.Tally {
			t := inner(sh)
			n++
			if n >= 3 {
				// SIGTERM semantics: finish the current shard, then drain.
				once.Do(func() {
					eng.Draining.Store(true)
					cancel()
				})
			}
			return t
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wctx := mc.WithRemote(ctx, eng)
		for _, cfg := range testRuns(seed) {
			if _, err := mc.RunContext(wctx, cfg, drainAfter); err != nil {
				return // drained out: clean worker exit
			}
		}
	}()

	got := coordinate(context.Background(), t, coord, seed, nil)
	assertTallies(t, "coordinator", got, want)
	<-done
}

// TestFabricRejectsOversizedBodies: every POST handler refuses a body over
// the 1 MiB cap with 413 before decoding it (the oversized worker ID is
// never registered), while a normal request still decodes.
func TestFabricRejectsOversizedBodies(t *testing.T) {
	coord, err := StartCoordinator(testOpts(JobSpec{RunID: "t-bodies", Experiment: "test", Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown(0)
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post("http://"+coord.Addr()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	huge := `{"worker":"` + strings.Repeat("w", maxRequestBody) + `"}`
	for _, path := range []string{PathLease, PathRenew, PathTally} {
		if code := post(path, huge); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body answered %d, want 413", path, code)
		}
	}
	if st := coord.Stats(); st.Workers != 0 {
		t.Errorf("oversized bodies registered %d workers, want 0", st.Workers)
	}
	if code := post(PathLease, `{"worker":"w1"}`); code != http.StatusOK {
		t.Errorf("normal lease request answered %d, want 200", code)
	}
	if st := coord.Stats(); st.Workers != 1 {
		t.Errorf("normal request registered %d workers, want 1", st.Workers)
	}
}
