package decoder_test

import (
	"fmt"
	"testing"

	"hetarch/internal/decoder"
	"hetarch/internal/splitmix"
	"hetarch/internal/stabsim"
	"hetarch/internal/surface"
)

// surfaceGraph returns the space–time matching graph surface.New builds at
// distance d in the given basis.
func surfaceGraph(tb testing.TB, d int, basis byte) *decoder.Graph {
	tb.Helper()
	return surfaceExperiment(tb, d, basis).Graph
}

// surfaceExperiment returns the Fig. 6/7 memory experiment at distance d
// with default noise in the given basis.
func surfaceExperiment(tb testing.TB, d int, basis byte) *surface.Experiment {
	tb.Helper()
	p := surface.DefaultParams(d)
	p.Basis = basis
	e, err := surface.New(p)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// TestSurfaceGraphGrownForest pins the growth phase to the historical
// reference decoder on the real surface-code graphs, d = 3…13 in both
// bases, with defects from the experiment's own circuit: 64 batches of
// BatchFrameSampler shots per graph (8 under -short, where the race
// detector makes the dense reference slow) on one reused decoder, every
// shot's fully grown edge set, peel seeds and prediction equal to the
// reference's.
func TestSurfaceGraphGrownForest(t *testing.T) {
	batches := 64
	if testing.Short() {
		batches = 8
	}
	for d := 3; d <= 13; d++ {
		for _, basis := range []byte{'Z', 'X'} {
			t.Run(fmt.Sprintf("d%d-%c", d, basis), func(t *testing.T) {
				t.Parallel()
				e := surfaceExperiment(t, d, basis)
				u := decoder.NewUnionFind(e.Graph)
				bs := stabsim.NewBatchFrameSampler(e.Circuit, splitmix.New(int64(d)))
				for b := 0; b < batches; b++ {
					if msg := decoder.ForestMismatch(u, bs.SampleBatch().Detectors, 64); msg != "" {
						t.Fatalf("batch %d: %s", b, msg)
					}
				}
			})
		}
	}
}

// TestSurfaceGraphCSR checks the CSR adjacency against the append-built
// list on the surface-code graphs of Figs. 6 and 7, and that a Clone
// decodes them bit-identically to a fresh decoder.
func TestSurfaceGraphCSR(t *testing.T) {
	rng := splitmix.New(31)
	for d := 3; d <= 13; d++ {
		for _, basis := range []byte{'Z', 'X'} {
			g := surfaceGraph(t, d, basis)
			u := decoder.NewUnionFind(g)
			if n := decoder.CSRMismatch(u); n >= 0 {
				t.Fatalf("d=%d %c: node %d adjacency differs from the append-built list", d, basis, n)
			}
			clone, fresh := u.Clone(), decoder.NewUnionFind(g)
			words := make([]uint64, g.NumNodes)
			preds, fpreds := make([]uint64, 64), make([]uint64, 64)
			for i := 0; i < 4; i++ {
				for j := range words {
					// About one detector event in 16 per shot.
					words[j] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
				}
				clone.DecodeBatch(words, 64, preds)
				fresh.DecodeBatch(words, 64, fpreds)
				for s := range preds {
					if preds[s] != fpreds[s] {
						t.Fatalf("d=%d %c batch %d shot %d: clone=%d fresh=%d", d, basis, i, s, preds[s], fpreds[s])
					}
				}
			}
		}
	}
}

// TestCloneAllocationsIndependentOfSize gates Clone at a fixed number of
// allocations: nothing in it may scale with the edge count.
func TestCloneAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(d int) float64 {
		u := decoder.NewUnionFind(surfaceGraph(t, d, 'Z'))
		return testing.AllocsPerRun(10, func() { u.Clone() })
	}
	if a5, a13 := allocs(5), allocs(13); a5 != a13 {
		t.Fatalf("Clone allocates %.0f objects at d=5 but %.0f at d=13", a5, a13)
	}
}
