package distill

import (
	"context"
	"runtime"
	"testing"
)

// mustRunEnsemble is RunEnsembleContext on a background context, failing
// the test on error.
func mustRunEnsemble(t *testing.T, cfg Config, replicas int, horizonMicros float64, workers int) EnsembleStats {
	t.Helper()
	stats, err := RunEnsembleContext(context.Background(), cfg, replicas, horizonMicros, workers)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestRunEnsembleDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := DefaultConfig(12.5, true)
	cfg.Seed = 5
	base := mustRunEnsemble(t, cfg, 6, 5000, 1)
	if base.Replicas != 6 {
		t.Fatalf("replica accounting wrong: %+v", base)
	}
	if base.Generated == 0 {
		t.Fatal("ensemble generated nothing")
	}
	for _, w := range []int{4, runtime.NumCPU()} {
		if got := mustRunEnsemble(t, cfg, 6, 5000, w); got != base {
			t.Fatalf("workers=%d: %+v != workers=1 %+v", w, got, base)
		}
	}
	if again := mustRunEnsemble(t, cfg, 6, 5000, 4); again != base {
		t.Fatal("ensemble not reproducible")
	}
}

func TestRunEnsemblePoolsAcrossReplicas(t *testing.T) {
	cfg := DefaultConfig(12.5, true)
	cfg.Seed = 7
	one := mustRunEnsemble(t, cfg, 1, 5000, 1)
	three := mustRunEnsemble(t, cfg, 3, 5000, 1)
	if three.Delivered < one.Delivered {
		t.Fatalf("pooled delivered (%d) below single replica (%d)", three.Delivered, one.Delivered)
	}
	// The mean rate stays in the same regime as a single trajectory.
	if one.Delivered > 0 && three.DeliveredRatePerSecond() <= 0 {
		t.Fatal("mean rate lost")
	}
}
