// Coordinator side of the fabric: the HTTP server that owns the lease
// state machine and the shard-order merge, plus the mc.Remote
// implementation that plugs it under the experiment runners.
package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/obs/runlog"
)

// CoordinatorOptions configures Start.
type CoordinatorOptions struct {
	// Addr is the listen address (host:port; port 0 picks a free one).
	Addr string
	// Spec is the job served to workers.
	Spec JobSpec
	// Checkpoint, when set, journals every accepted tally before it is
	// acknowledged — the mc checkpoint file doubles as the lease/recovery
	// log, so a killed coordinator resumes without re-running completed
	// ranges. Runs are keyed exactly like a local run's, so a fabric
	// checkpoint resumes a local run and vice versa.
	Checkpoint mc.Checkpoint

	// LeaseTTL is how long a granted lease lives without a heartbeat
	// renewal before its range returns to the pending pool (default
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LeaseShards is the shard-range block size of one lease (default
	// DefaultLeaseShards).
	LeaseShards int
	// LocalDelay is how long the coordinator leaves a pending block to the
	// worker pool before executing it locally. With no live workers it
	// takes over immediately, so a coordinator with no workers degrades to
	// a plain local run (default DefaultLocalDelay).
	LocalDelay time.Duration
	// MinWorkers holds local fallback until this many distinct workers
	// have contacted the coordinator, so a short sweep cannot complete
	// locally before a cluster that is still starting up gets a shard.
	// Workers dying later does not re-arm the barrier, and leases and
	// merges are unaffected — the barrier only delays local takeover. 0
	// (the default) falls back immediately when no workers are live; a
	// cancelled context still aborts a coordinator waiting on the barrier.
	MinWorkers int
	// Poll is the coordinator's internal scan interval (default
	// DefaultPoll).
	Poll time.Duration
}

func (o *CoordinatorOptions) fill() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.LeaseShards <= 0 {
		o.LeaseShards = DefaultLeaseShards
	}
	if o.LocalDelay <= 0 {
		o.LocalDelay = DefaultLocalDelay
	}
	if o.Poll <= 0 {
		o.Poll = DefaultPoll
	}
}

// lease is one granted shard-range block.
type lease struct {
	worker   string
	epoch    int
	deadline time.Time
}

// block is the lease unit: a fixed contiguous shard-index range of one run.
type block struct {
	start, end   int // shard index range [start, end)
	remaining    int // undone shards in the range
	lease        *lease
	epoch        int       // epochs issued so far for this block
	pendingSince time.Time // when the block last became pending (for LocalDelay)
	grantedAt    time.Time // first grant (for the lease-latency histogram)
}

// runState is one registered run: its decomposition, per-shard results,
// and lease blocks.
type runState struct {
	key       mc.RunKey
	shards    []mc.Shard
	done      []bool
	tallies   []mc.Tally
	blocks    []*block
	remaining int
	total     mc.Tally
	complete  bool
	// completeCh is closed when the run's last shard lands, waking the
	// coordinator's RunTally loop and any blocked HTTP pollers.
	completeCh chan struct{}
	recordErr  error // first checkpoint-record failure (durability lost)
}

// Coordinator serves the fabric protocol and implements mc.Remote for the
// process running the experiment control flow.
type Coordinator struct {
	opts CoordinatorOptions
	srv  *http.Server
	ln   net.Listener

	mu      sync.Mutex
	runSeq  int
	runs    map[mc.RunKey]*runState
	workers map[string]time.Time // worker ID -> last contact
	seen    map[string]bool      // every worker ID ever seen
	jobDone bool
	stats   Stats
}

// StartCoordinator binds the listener and starts serving the fabric
// protocol. The job is served immediately; runs register as the experiment
// control flow reaches them.
func StartCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	opts.fill()
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", opts.Addr, err)
	}
	c := &Coordinator{
		opts:    opts,
		ln:      ln,
		runs:    map[mc.RunKey]*runState{},
		workers: map[string]time.Time{},
		seen:    map[string]bool{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc(PathJob, c.handleJob)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathRenew, c.handleRenew)
	mux.HandleFunc(PathTally, c.handleTally)
	c.srv = &http.Server{Handler: mux}
	go c.srv.Serve(ln)
	runlog.L().Info(evListen, "addr", c.Addr(), "experiment", opts.Spec.Experiment)
	return c, nil
}

// Addr returns the bound listen address (with the resolved port).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Stats returns a snapshot of the cluster composition and fault counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Addr = c.Addr()
	s.Workers = len(c.seen)
	return s
}

// Shutdown marks the job done, gives connected workers up to grace to
// observe it (each worker that polls the job state after this point is
// released and drops out of the live set), then closes the listener.
func (c *Coordinator) Shutdown(grace time.Duration) {
	c.mu.Lock()
	c.jobDone = true
	c.mu.Unlock()
	runlog.L().Info(evJobDone, "experiment", c.opts.Spec.Experiment)
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		live := c.liveWorkersLocked(time.Now())
		c.mu.Unlock()
		if live == 0 {
			break
		}
		time.Sleep(c.opts.Poll)
	}
	c.srv.Close()
	c.ln.Close()
}

// touchWorker records worker liveness (any request counts as contact).
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) {
	if id == "" {
		return
	}
	if !c.seen[id] {
		c.seen[id] = true
		runlog.L().Info(evWorkerSeen, "worker", id)
	}
	c.workers[id] = now
	workersLiveGage.Set(float64(c.liveWorkersLocked(now)))
}

// liveWorkersLocked counts workers heard from within one lease TTL.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	live := 0
	for id, last := range c.workers {
		if now.Sub(last) <= c.opts.LeaseTTL {
			live++
		} else {
			delete(c.workers, id)
		}
	}
	return live
}

// reapLocked expires overdue leases across every incomplete run, returning
// their blocks to the pending pool under a bumped epoch.
func (c *Coordinator) reapLocked(now time.Time) {
	for _, rs := range c.runs {
		if rs.complete {
			continue
		}
		for _, b := range rs.blocks {
			if b.lease != nil && now.After(b.lease.deadline) {
				runlog.L().Warn(evLeaseExpired, "run", rs.key.Run, "start", b.start, "end", b.end,
					"worker", b.lease.worker, "epoch", b.lease.epoch)
				leasesExpired.Inc()
				c.stats.LeasesExpired++
				b.lease = nil
				b.pendingSince = now
			}
		}
	}
}

// register installs (or revisits) a run: assigns the next run number on
// first sight, decomposes the budget, and prefills completed shards from
// the checkpoint. RunTally is the only caller, so run numbering follows
// the experiment's deterministic control flow.
func (c *Coordinator) register(cfg mc.Config) *runState {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := mc.RunKey{Run: c.runSeq, Shots: cfg.Shots, Seed: cfg.Seed, ShardSize: cfg.ShardSizeOrDefault()}
	c.runSeq++
	if rs, ok := c.runs[key]; ok {
		return rs // unreachable in practice: run numbers never repeat
	}
	shards := cfg.Shards()
	rs := &runState{
		key:        key,
		shards:     shards,
		done:       make([]bool, len(shards)),
		tallies:    make([]mc.Tally, len(shards)),
		remaining:  len(shards),
		completeCh: make(chan struct{}),
	}
	now := time.Now()
	for i := range shards {
		if c.opts.Checkpoint == nil {
			break
		}
		if t, ok := c.opts.Checkpoint.Lookup(key, shards[i]); ok {
			rs.done[i] = true
			rs.tallies[i] = t
			rs.remaining--
		}
	}
	for start := 0; start < len(shards); start += c.opts.LeaseShards {
		end := start + c.opts.LeaseShards
		if end > len(shards) {
			end = len(shards)
		}
		b := &block{start: start, end: end, pendingSince: now}
		for i := start; i < end; i++ {
			if !rs.done[i] {
				b.remaining++
			}
		}
		rs.blocks = append(rs.blocks, b)
	}
	c.runs[key] = rs
	if rs.remaining == 0 {
		c.finishRunLocked(rs)
	}
	return rs
}

// finishRunLocked folds the per-shard tallies strictly in shard order and
// marks the run complete.
func (c *Coordinator) finishRunLocked(rs *runState) {
	rs.total = mc.Tally{}
	for i := range rs.tallies {
		rs.total.Add(rs.tallies[i])
	}
	rs.complete = true
	close(rs.completeCh)
}

// acceptLocked applies one shard tally: duplicates (already-done shards,
// whether from a re-leased range, a retried submission, or a partitioned
// worker's late delivery) are dropped, never double-counted. A shard whose
// stream seed disagrees with the coordinator's decomposition is a config
// drift between processes and poisons the submission.
func (c *Coordinator) acceptLocked(rs *runState, st ShardTally) (accepted bool, err error) {
	if st.Index < 0 || st.Index >= len(rs.shards) {
		return false, fmt.Errorf("shard %d out of range [0,%d)", st.Index, len(rs.shards))
	}
	if rs.shards[st.Index].Seed != st.Seed {
		runlog.L().Warn(evMismatch, "run", rs.key.Run, "shard", st.Index,
			"got_seed", st.Seed, "want_seed", rs.shards[st.Index].Seed)
		return false, fmt.Errorf("shard %d stream seed %d != %d: decomposition mismatch (flag drift between coordinator and worker?)",
			st.Index, st.Seed, rs.shards[st.Index].Seed)
	}
	if rs.done[st.Index] {
		tallyDupsDrop.Inc()
		c.stats.TallyDupsDropped++
		return false, nil
	}
	t := mc.Tally{Shots: st.Shots, Errors: st.Errors}
	if c.opts.Checkpoint != nil {
		if rerr := c.opts.Checkpoint.Record(rs.key, rs.shards[st.Index], t); rerr != nil {
			if rs.recordErr == nil {
				rs.recordErr = fmt.Errorf("fabric: checkpoint record: %w", rerr)
			}
			return false, rs.recordErr
		}
	}
	rs.done[st.Index] = true
	rs.tallies[st.Index] = t
	rs.remaining--
	tallyAccepted.Inc()
	c.stats.TalliesAccepted++
	for _, b := range rs.blocks {
		if st.Index >= b.start && st.Index < b.end {
			b.remaining--
			if b.remaining == 0 {
				if !b.grantedAt.IsZero() {
					leaseLatency.Observe(time.Since(b.grantedAt).Nanoseconds())
				}
				b.lease = nil
			}
		}
	}
	if rs.remaining == 0 {
		c.finishRunLocked(rs)
	}
	return true, nil
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxRequestBody bounds fabric POST bodies, matching the job service's
// submit limit. Lease and renew requests are a few hundred bytes, and a
// tally carries one short record per shard of a lease, so honest requests
// stay far below it.
const maxRequestBody = 1 << 20

// readJSON decodes a POST body into v, answering 405 for other methods,
// 413 for a body over maxRequestBody and 400 for malformed JSON.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	resp := JobResponse{State: JobRunning, Spec: c.opts.Spec}
	if c.jobDone {
		resp.State = JobDone
		// A worker that has observed job completion is released: drop it
		// from the live set so Shutdown does not wait on it.
		if id := r.URL.Query().Get("worker"); id != "" {
			delete(c.workers, id)
		}
	} else if id := r.URL.Query().Get("worker"); id != "" {
		c.touchWorkerLocked(id, time.Now())
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// lookupRun resolves a lease/tally request's run key. Unknown keys are
// "wait": the worker may simply be ahead of the coordinator's control
// flow, which has not reached that run yet.
func (c *Coordinator) lookupRunLocked(key mc.RunKey) *runState {
	return c.runs[key]
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(req.Worker, now)
	c.reapLocked(now)
	rs := c.lookupRunLocked(req.Key)
	if rs == nil {
		if c.jobDone {
			// The coordinator's control flow ended (normally or interrupted)
			// without ever reaching this run: release the worker instead of
			// letting it poll a run that will never register.
			writeJSON(w, LeaseResponse{Status: StatusError, ErrorMsg: "job is done; run never registered"})
			return
		}
		writeJSON(w, LeaseResponse{Status: StatusWait})
		return
	}
	if rs.recordErr != nil {
		writeJSON(w, LeaseResponse{Status: StatusError, ErrorMsg: rs.recordErr.Error()})
		return
	}
	if rs.complete {
		t := rs.total
		writeJSON(w, LeaseResponse{Status: StatusDone, Tally: &t})
		return
	}
	for _, b := range rs.blocks {
		if b.remaining == 0 || b.lease != nil {
			continue
		}
		b.epoch++
		b.lease = &lease{worker: req.Worker, epoch: b.epoch, deadline: now.Add(c.opts.LeaseTTL)}
		if b.grantedAt.IsZero() {
			b.grantedAt = now
		}
		leasesGranted.Inc()
		c.stats.LeasesGranted++
		writeJSON(w, LeaseResponse{
			Status: StatusLease, Epoch: b.epoch, Start: b.start, End: b.end,
			TTLMs: c.opts.LeaseTTL.Milliseconds(),
		})
		return
	}
	// Everything is leased or done; the worker polls again shortly.
	writeJSON(w, LeaseResponse{Status: StatusWait})
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(req.Worker, now)
	c.reapLocked(now)
	rs := c.lookupRunLocked(req.Key)
	if rs == nil {
		writeJSON(w, RenewResponse{OK: false})
		return
	}
	for _, b := range rs.blocks {
		if b.start == req.Start && b.end == req.End &&
			b.lease != nil && b.lease.worker == req.Worker && b.lease.epoch == req.Epoch {
			b.lease.deadline = now.Add(c.opts.LeaseTTL)
			writeJSON(w, RenewResponse{OK: true})
			return
		}
	}
	writeJSON(w, RenewResponse{OK: false})
}

func (c *Coordinator) handleTally(w http.ResponseWriter, r *http.Request) {
	var req TallyRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(req.Worker, now)
	rs := c.lookupRunLocked(req.Key)
	if rs == nil {
		// A tally for a run the coordinator never registered: late delivery
		// from a previous coordinator incarnation. Drop it whole.
		tallyDupsDrop.Add(int64(len(req.Tallies)))
		c.stats.TallyDupsDropped += int64(len(req.Tallies))
		runlog.L().Warn(evTallyDropped, "worker", req.Worker, "run", req.Key.Run, "shards", len(req.Tallies))
		writeJSON(w, TallyResponse{Duplicates: len(req.Tallies)})
		return
	}
	resp := TallyResponse{}
	for _, st := range req.Tallies {
		ok, err := c.acceptLocked(rs, st)
		if err != nil {
			resp.ErrorMsg = err.Error()
			break
		}
		if ok {
			resp.Accepted++
		} else {
			resp.Duplicates++
		}
	}
	writeJSON(w, resp)
}

// --- mc.Remote implementation ---

// RunTally registers the run with the lease state machine and drives it to
// completion: workers drain the blocks over HTTP while this loop reaps
// expired leases and — after LocalDelay, or immediately once the worker
// pool is empty — executes leftover blocks locally, so the run always
// terminates. The pooled tally is the shard-order fold of the per-shard
// results, bit-identical to a local run.
func (c *Coordinator) RunTally(ctx context.Context, cfg mc.Config, newWorker func() mc.ShardRunner) (mc.Tally, error) {
	rs := c.register(cfg)
	var localRun mc.ShardRunner
	ticker := time.NewTicker(c.opts.Poll)
	defer ticker.Stop()
	for {
		now := time.Now()
		c.mu.Lock()
		c.reapLocked(now)
		if rs.complete {
			t := rs.total
			c.mu.Unlock()
			return t, nil
		}
		if err := rs.recordErr; err != nil {
			c.mu.Unlock()
			return c.partial(rs, err)
		}
		if ctx.Err() != nil {
			c.mu.Unlock()
			return c.partial(rs, ctx.Err())
		}
		b := c.claimLocalLocked(rs, now)
		c.mu.Unlock()

		if b == nil {
			select {
			case <-ctx.Done():
			case <-rs.completeCh:
			case <-ticker.C:
			}
			continue
		}
		if localRun == nil {
			localRun = newWorker()
		}
		if err := c.runBlockLocally(ctx, rs, b, &localRun, newWorker); err != nil {
			return c.partial(rs, err)
		}
	}
}

// claimLocalLocked picks a pending block for coordinator-local execution:
// immediately when no live worker exists, otherwise only after the block
// has sat unleased for LocalDelay — workers get first refusal.
func (c *Coordinator) claimLocalLocked(rs *runState, now time.Time) *block {
	if len(c.seen) < c.opts.MinWorkers {
		return nil
	}
	noWorkers := c.liveWorkersLocked(now) == 0
	for _, b := range rs.blocks {
		if b.remaining == 0 || b.lease != nil {
			continue
		}
		if noWorkers || now.Sub(b.pendingSince) >= c.opts.LocalDelay {
			b.epoch++
			b.lease = &lease{worker: "local", epoch: b.epoch, deadline: now.Add(24 * time.Hour)}
			if b.grantedAt.IsZero() {
				b.grantedAt = now
			}
			return b
		}
	}
	return nil
}

// runBlockLocally executes a claimed block's undone shards on the
// coordinator's own runner, feeding each tally through the same idempotent
// accept path as a remote submission. A panicking shard is retried once on
// a fresh runner (mirroring the engine's retry contract); a second panic
// fails the run with a *mc.ShardFault.
func (c *Coordinator) runBlockLocally(ctx context.Context, rs *runState, b *block, run *mc.ShardRunner, newWorker func() mc.ShardRunner) error {
	for i := b.start; i < b.end; i++ {
		c.mu.Lock()
		skip := rs.done[i]
		c.mu.Unlock()
		if skip {
			continue
		}
		if ctx.Err() != nil {
			c.releaseBlock(rs, b)
			return nil // the RunTally loop surfaces the cancellation
		}
		sh := rs.shards[i]
		t, fault := mc.RunShardIsolated(*run, sh, 1)
		if fault != nil {
			*run = newWorker() // the panic may have corrupted runner state
			t, fault = mc.RunShardIsolated(*run, sh, 2)
		}
		if fault != nil {
			c.releaseBlock(rs, b)
			return fault
		}
		localShards.Inc()
		c.mu.Lock()
		c.stats.LocalShards++
		_, err := c.acceptLocked(rs, ShardTally{Index: i, Seed: sh.Seed, Shots: t.Shots, Errors: t.Errors})
		c.mu.Unlock()
		if err != nil {
			return err
		}
	}
	runlog.L().Info(evLocalShards, "run", rs.key.Run, "start", b.start, "end", b.end)
	c.releaseBlock(rs, b)
	return nil
}

func (c *Coordinator) releaseBlock(rs *runState, b *block) {
	c.mu.Lock()
	if b.lease != nil && b.lease.worker == "local" {
		b.lease = nil
		b.pendingSince = time.Now()
	}
	c.mu.Unlock()
}

// partial folds what completed and wraps the cause in the engine's
// *mc.PartialError, so the CLI's interrupt/resume path treats a fabric run
// exactly like a local one.
func (c *Coordinator) partial(rs *runState, cause error) (mc.Tally, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total mc.Tally
	completed := make([]int, 0, len(rs.done))
	var shotsDone int64
	for i, ok := range rs.done {
		if ok {
			completed = append(completed, i)
			shotsDone += int64(rs.shards[i].Shots)
			total.Add(rs.tallies[i])
		}
	}
	sort.Ints(completed)
	return total, &mc.PartialError{Cause: cause, Completed: completed, Shards: len(rs.shards), ShotsDone: shotsDone}
}
