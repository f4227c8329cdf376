// Package fabric is the fault-tolerant distributed sweep layer of the mc
// engine: a stdlib-only coordinator/worker protocol (net/http +
// encoding/json) that spreads a deterministic shard decomposition across
// machines without parallelism ever becoming a statistics knob.
//
// # Model
//
// One coordinator process runs the experiment's control flow. Every
// Tally-shaped Monte Carlo run reaches the coordinator's Remote hook (see
// mc.WithRemote) at the RunContext boundary, where the run's shard
// decomposition — a pure function of (shots, seed, shard size) — is fixed.
// The coordinator carves the decomposition into fixed shard-range blocks
// and leases them to workers; workers execute their leased shards on the
// ordinary mc shard runners and ship back per-shard tallies; the
// coordinator merges strictly in shard order. Because a completed shard's
// tally is a pure function of its stream seed, the pooled counts are
// bit-identical to a local run at any cluster size, any worker count, and
// under any fault schedule.
//
// Worker processes replay the same experiment control flow (same
// experiment, scale, seed — the job spec) with their own Remote hook:
// each RunContext call leases ranges, executes them, and then blocks until
// the coordinator reports the run's merged tally, so both sides make
// identical control-flow decisions and number their runs identically.
//
// # Robustness
//
// Leases are deadline-based: workers renew them by heartbeat, and a lease
// that expires (worker death, network partition) returns its range to the
// pending pool under a bumped epoch. Tally submission is idempotent —
// keyed by (run key, shard range, lease epoch), with duplicate or late
// deliveries dropped per shard, never double-counted. The worker's HTTP
// client uses request timeouts, bounded retries, and exponential backoff
// with deterministic jitter. The coordinator executes leftover shards
// locally when the worker pool drains, so a sweep always completes; and
// when an mc checkpoint is attached, every accepted tally is journaled
// before it is acknowledged, making the checkpoint file double as the
// coordinator's lease/recovery log: a killed coordinator resumes without
// re-running completed ranges.
package fabric

import (
	"time"

	"hetarch/internal/mc"
	"hetarch/internal/obs"
	"hetarch/internal/obs/runlog"
)

// Fabric telemetry: lease lifecycle counters, idempotency drops, client
// retries, and the grant-to-merge latency histogram per leased block.
var (
	leasesGranted   = obs.C("fabric.leases_granted")
	leasesExpired   = obs.C("fabric.leases_expired")
	tallyDupsDrop   = obs.C("fabric.tally_dups_dropped")
	clientRetries   = obs.C("fabric.retries")
	localShards     = obs.C("fabric.local_shards")
	tallyAccepted   = obs.C("fabric.tallies_accepted")
	leaseLatency    = obs.H("fabric.lease_latency_ns")
	workersLiveGage = obs.G("fabric.workers_live")
)

// Structured-log events (no-ops until the CLI installs a run logger).
var (
	evListen       = runlog.Event("fabric.coordinator_listen")
	evJobDone      = runlog.Event("fabric.job_done")
	evLeaseExpired = runlog.Event("fabric.lease_expired")
	evTallyDropped = runlog.Event("fabric.tally_dropped")
	evLocalShards  = runlog.Event("fabric.local_takeover")
	evWorkerSeen   = runlog.Event("fabric.worker_seen")
	evWorkerStart  = runlog.Event("fabric.worker_start")
	evWorkerDone   = runlog.Event("fabric.worker_done")
	evRetry        = runlog.Event("fabric.retry")
	evLeaseLost    = runlog.Event("fabric.lease_lost")
	evMismatch     = runlog.Event("fabric.decomposition_mismatch")
)

// Protocol constants. The path prefix is versioned so a future protocol
// revision can coexist with v1 handlers during a rolling upgrade.
const (
	PathJob   = "/fabric/v1/job"
	PathLease = "/fabric/v1/lease"
	PathRenew = "/fabric/v1/renew"
	PathTally = "/fabric/v1/tally"
)

// Defaults for the lease state machine and the worker client. Tests dial
// these down; production runs keep them.
const (
	DefaultLeaseTTL    = 3 * time.Second
	DefaultLeaseShards = 4
	DefaultLocalDelay  = 500 * time.Millisecond
	DefaultPoll        = 25 * time.Millisecond
	DefaultTimeout     = 5 * time.Second
	DefaultRetries     = 5
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffCap  = 2 * time.Second
)

// JobSpec is what a worker needs to replay the coordinator's experiment
// control flow exactly: the experiment, its scale, and the seeds. Workers
// derive every shard decomposition locally from it, so the wire protocol
// never carries per-shard seeds — only index ranges.
type JobSpec struct {
	RunID      string `json:"run_id"`
	Experiment string `json:"experiment"`
	Scale      string `json:"scale"` // "quick" or "full"
	Seed       int64  `json:"seed"`
	Shots      int    `json:"shots,omitempty"` // CLI -shots override; 0 = scale default
}

// Job states served at PathJob.
const (
	JobRunning = "running"
	JobDone    = "done"
)

// JobResponse announces the job to polling workers.
type JobResponse struct {
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
}

// LeaseRequest asks for a shard-range lease on one run. Key is the
// engine's run identity — the worker derives it from its own run-sequence
// counter and the run's config, and the coordinator refuses a key whose
// decomposition it does not recognize (a config drift between processes).
type LeaseRequest struct {
	Worker string    `json:"worker"`
	Key    mc.RunKey `json:"key"`
}

// Lease statuses.
const (
	StatusLease = "lease" // a range was granted
	StatusWait  = "wait"  // nothing to grant now; poll again
	StatusDone  = "done"  // the run is fully merged; Tally carries the pooled result
	StatusError = "error"
)

// LeaseResponse grants a shard range [Start, End) under a lease epoch, or
// reports the run's state.
type LeaseResponse struct {
	Status   string    `json:"status"`
	Epoch    int       `json:"epoch,omitempty"`
	Start    int       `json:"start,omitempty"`
	End      int       `json:"end,omitempty"`
	TTLMs    int64     `json:"ttl_ms,omitempty"`
	Tally    *mc.Tally `json:"tally,omitempty"`
	ErrorMsg string    `json:"error,omitempty"`
}

// RenewRequest is the heartbeat renewing a held lease.
type RenewRequest struct {
	Worker string    `json:"worker"`
	Key    mc.RunKey `json:"key"`
	Epoch  int       `json:"epoch"`
	Start  int       `json:"start"`
	End    int       `json:"end"`
}

// RenewResponse: OK=false means the lease was lost (expired and possibly
// re-granted); the worker abandons the range mid-flight.
type RenewResponse struct {
	OK bool `json:"ok"`
}

// ShardTally is one completed shard on the wire. Seed is the shard's
// stream seed, echoed back as a decomposition cross-check: the coordinator
// rejects a submission whose seeds disagree with its own decomposition.
type ShardTally struct {
	Index  int   `json:"index"`
	Seed   int64 `json:"seed"`
	Shots  int64 `json:"shots"`
	Errors int64 `json:"errors"`
}

// TallyRequest submits the tallies of a leased range. The (Key, Start,
// End, Epoch) tuple is the idempotency key: the coordinator accepts each
// shard at most once, dropping duplicates and late deliveries from expired
// epochs without double-counting.
type TallyRequest struct {
	Worker  string       `json:"worker"`
	Key     mc.RunKey    `json:"key"`
	Epoch   int          `json:"epoch"`
	Start   int          `json:"start"`
	End     int          `json:"end"`
	Tallies []ShardTally `json:"tallies"`
}

// TallyResponse reports how the submission landed.
type TallyResponse struct {
	Accepted   int    `json:"accepted"`
	Duplicates int    `json:"duplicates"`
	ErrorMsg   string `json:"error,omitempty"`
}

// Stats is the coordinator's cluster-composition and fault-counter
// summary, recorded into the run's ledger envelope.
type Stats struct {
	Addr             string `json:"addr,omitempty"`
	Workers          int    `json:"workers,omitempty"` // distinct worker IDs seen
	LeasesGranted    int64  `json:"leases_granted,omitempty"`
	LeasesExpired    int64  `json:"leases_expired,omitempty"`
	TalliesAccepted  int64  `json:"tallies_accepted,omitempty"`
	TallyDupsDropped int64  `json:"tally_dups_dropped,omitempty"`
	LocalShards      int64  `json:"local_shards,omitempty"`
	Retries          int64  `json:"retries,omitempty"` // client-side (worker role)
}

// AnnounceWorker logs a worker's start against the job it joined.
func AnnounceWorker(id string, spec JobSpec) {
	runlog.L().Info(evWorkerStart, "worker", id, "job", spec.RunID,
		"experiment", spec.Experiment, "scale", spec.Scale, "seed", spec.Seed)
}

// AnnounceWorkerDone logs a worker's exit from the sweep.
func AnnounceWorkerDone(id string, err error) {
	if err != nil {
		runlog.L().Warn(evWorkerDone, "worker", id, "error", err.Error())
		return
	}
	runlog.L().Info(evWorkerDone, "worker", id)
}
