// Remote execution hook of the mc engine: the seam the distributed sweep
// fabric (internal/fabric) plugs into.
//
// A Remote carried by the context intercepts Tally-shaped runs at the
// RunContext boundary — the exact point where the deterministic shard
// decomposition is fixed but no shard has executed — and takes over their
// execution: the fabric coordinator leases shard ranges to workers over
// HTTP and merges the returned tallies in shard order, and the fabric
// worker executes only the ranges it leased. Because the decomposition
// (Config.Shards) is a pure function of (Shots, Seed, ShardSize) and every
// shard's tally is a pure function of its stream seed, any partition of the
// shard set across any set of machines pools to counts bit-identical to a
// local run.
//
// The Remote is context-scoped, like the checkpoint binding: an
// in-process chaos test can run a coordinator and several workers in one
// process, each with its own engine and its own run-sequence counter.
package mc

import "context"

// Remote executes a Tally-shaped run's shard decomposition somewhere other
// than the local worker pool. RunContext delegates to it before minting a
// local run key or consulting the context's checkpoint scope — a Remote
// owns run numbering, checkpointing, and merging for the runs it handles.
//
// Implementations must preserve the engine's contract: the pooled tally is
// the shard-order fold of the per-shard tallies of Config.Shards(), and an
// interrupted run returns the partial fold together with a *PartialError.
type Remote interface {
	RunTally(ctx context.Context, cfg Config, newWorker func() ShardRunner) (Tally, error)
}

type remoteKey struct{}

// WithRemote returns a context that routes every RunContext call under it
// through r. Pass the returned context to the experiment runners; nested
// MapShardsContext calls with non-Tally result types are not intercepted
// and keep executing locally.
func WithRemote(ctx context.Context, r Remote) context.Context {
	return context.WithValue(ctx, remoteKey{}, r)
}

// RemoteFrom returns the Remote carried by ctx, or nil.
func RemoteFrom(ctx context.Context) Remote {
	r, _ := ctx.Value(remoteKey{}).(Remote)
	return r
}

// Shards materializes the run's deterministic shard decomposition — the
// unit of work the fabric leases. The decomposition depends only on
// (Shots, Seed, ShardSize): both ends of the fabric derive it
// independently and cross-check shard seeds on tally submission.
func (c Config) Shards() []Shard { return c.shards() }

// ShardSizeOrDefault resolves the configured shard size the way the engine
// does (<= 0 means DefaultShardSize), so fabric peers key runs identically.
func (c Config) ShardSizeOrDefault() int { return c.shardSize() }

// RunShardIsolated executes one shard attempt under the engine's panic
// isolation, honoring the process-wide fault injector exactly like the
// local dispatch loop: BeforeShard may sleep or panic (recovered into the
// returned *ShardFault), ShardDone fires after a successful completion.
// Remote executors use it so chaos schedules written against the engine
// hooks drive fabric-executed shards too.
func RunShardIsolated(run ShardRunner, sh Shard, attempt int) (Tally, *ShardFault) {
	fi := currentInjector()
	t, fault := runShard(run, sh, attempt, fi)
	if fault != nil {
		fault.Attempts = attempt
		return t, fault
	}
	if fi != nil {
		fi.ShardDone(sh)
	}
	return t, nil
}
