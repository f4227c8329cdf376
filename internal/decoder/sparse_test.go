package decoder

import (
	"fmt"
	"math/bits"
	"testing"

	"hetarch/internal/splitmix"
)

// sectorGraph builds the space–time matching graph of one basis sector of a
// distance-d code over the given number of detector layers — the same shape
// internal/surface builds (time-like measurement edges, space-like data
// edges, boundary edges where a data qubit touches a single stabilizer,
// observable mask on the logical cut) without the import cycle that using
// surface.Experiment from this package would create.
func sectorGraph(d, layers int) *Graph {
	numStabs := d - 1
	g := &Graph{NumNodes: numStabs * layers}
	node := func(stab, layer int) int { return layer*numStabs + stab }
	for s := 0; s < numStabs; s++ {
		for r := 0; r+1 < layers; r++ {
			g.Edges = append(g.Edges, Edge{U: node(s, r), V: node(s, r+1)})
		}
	}
	for r := 0; r < layers; r++ {
		// Data qubit 0 crosses the logical cut and touches only stabilizer 0.
		g.Edges = append(g.Edges, Edge{U: node(0, r), V: Boundary, ObsMask: 1})
		for q := 1; q < d-1; q++ {
			g.Edges = append(g.Edges, Edge{U: node(q-1, r), V: node(q, r)})
		}
		g.Edges = append(g.Edges, Edge{U: node(numStabs-1, r), V: Boundary})
	}
	return g
}

// randomGraph builds an arbitrary matching graph: random pair edges, some
// boundary edges, random observable masks, possibly disconnected — the
// stress shape for the growth/peel equivalence.
func randomGraph(rng *splitmix.RNG, nodes, edges int) *Graph {
	g := &Graph{NumNodes: nodes}
	for i := 0; i < edges; i++ {
		u := int(rng.Uint64() % uint64(nodes))
		v := Boundary
		if rng.Float64() > 0.25 {
			v = int(rng.Uint64() % uint64(nodes))
			if v == u {
				v = Boundary
			}
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v, ObsMask: rng.Uint64() & 3})
	}
	return g
}

// randomDefectWords fills words with random detector events at roughly the
// given per-detector probability, allocation-free.
func randomDefectWords(rng *splitmix.RNG, words []uint64, density int) {
	for i := range words {
		w := rng.Uint64()
		for k := 1; k < density; k++ {
			w &= rng.Uint64()
		}
		words[i] = w
	}
}

// referenceGraphs is the graph set the sparse decoder is pinned to the
// reference on: sector graphs from d = 5 to 13 and two random graphs drawn
// from rng.
func referenceGraphs(rng *splitmix.RNG) map[string]*Graph {
	return map[string]*Graph{
		"sector-d5":  sectorGraph(5, 6),
		"sector-d9":  sectorGraph(9, 10),
		"sector-d13": sectorGraph(13, 14),
		"random-32":  randomGraph(rng, 32, 64),
		"random-7":   randomGraph(rng, 7, 9),
	}
}

// TestSparseDecoderMatchesReference pins the rewritten sparse decoder to
// the historical dense implementation (reference_test.go) on 10k randomized
// shots per graph: every prediction must agree bit for bit, through all
// three entry points (dense Decode, DecodeBits, DecodeBatch) and with the
// decoder instance reused across shots so the epoch-stamped scratch is
// exercised the way the shard runners use it.
func TestSparseDecoderMatchesReference(t *testing.T) {
	rng := splitmix.New(11)
	graphs := referenceGraphs(rng)
	const shots = 10000
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ref := newRefUnionFind(g)
			u := NewUnionFind(g)
			words := make([]uint64, g.NumNodes)
			preds := make([]uint64, 64)
			dense := make([]bool, g.NumNodes)
			for done := 0; done < shots; done += 64 {
				randomDefectWords(rng, words, 3)
				u.DecodeBatch(words, 64, preds)
				for s := 0; s < 64; s++ {
					for d := range dense {
						dense[d] = words[d]>>uint(s)&1 == 1
					}
					want := ref.Decode(dense)
					if preds[s] != want {
						t.Fatalf("shot %d: DecodeBatch=%d reference=%d", done+s, preds[s], want)
					}
					if got := u.DecodeBits(words, s); got != want {
						t.Fatalf("shot %d: DecodeBits=%d reference=%d", done+s, got, want)
					}
					if got := u.Decode(dense); got != want {
						t.Fatalf("shot %d: Decode=%d reference=%d", done+s, got, want)
					}
				}
			}
		})
	}
}

// TestSparseDecoderFreshVsReused guards the epoch reset: a long-lived
// decoder that has seen many shots must predict exactly like a freshly
// constructed one on the same pattern.
func TestSparseDecoderFreshVsReused(t *testing.T) {
	g := sectorGraph(7, 8)
	rng := splitmix.New(5)
	aged := NewUnionFind(g)
	words := make([]uint64, g.NumNodes)
	preds := make([]uint64, 64)
	for i := 0; i < 64; i++ {
		randomDefectWords(rng, words, 2)
		aged.DecodeBatch(words, 64, preds)
	}
	for i := 0; i < 16; i++ {
		randomDefectWords(rng, words, 2)
		aged.DecodeBatch(words, 64, preds)
		fresh := NewUnionFind(g)
		fpreds := make([]uint64, 64)
		fresh.DecodeBatch(words, 64, fpreds)
		for s := 0; s < 64; s++ {
			if preds[s] != fpreds[s] {
				t.Fatalf("batch %d shot %d: aged=%d fresh=%d", i, s, preds[s], fpreds[s])
			}
		}
	}
}

// TestDecodeSteadyStateZeroAllocs is the allocation gate for the decoder
// core: after warm-up, decoding allocates nothing — per 64-shot batch, per
// dense Decode, per DecodeBits call — on sector graphs from d=5 to d=13.
// The measured runs replay the warm-up's RNG stream, so arena capacities
// are provably at their high-water mark when counting starts.
func TestDecodeSteadyStateZeroAllocs(t *testing.T) {
	for d := 5; d <= 13; d += 2 {
		g := sectorGraph(d, d+1)
		u := NewUnionFind(g)
		words := make([]uint64, g.NumNodes)
		preds := make([]uint64, 64)
		dense := make([]bool, g.NumNodes)
		defects := 0

		const runs = 64
		batch := func() {
			randomDefectWords(splitmixShared, words, 3)
			u.DecodeBatch(words, 64, preds)
		}
		one := func() {
			randomDefectWords(splitmixShared, words, 3)
			for i := range dense {
				dense[i] = words[i]&1 == 1
				if dense[i] {
					defects++
				}
			}
			if u.Decode(dense) != u.DecodeBits(words, 0) {
				t.Fatal("entry points disagree")
			}
		}

		splitmixShared.Seed(int64(d))
		for i := 0; i < runs+1; i++ {
			batch()
		}
		splitmixShared.Seed(int64(d))
		if avg := testing.AllocsPerRun(runs, batch); avg != 0 {
			t.Errorf("d=%d: DecodeBatch allocates %.2f per 64-shot batch, want 0", d, avg)
		}

		splitmixShared.Seed(int64(d) + 100)
		for i := 0; i < runs+1; i++ {
			one()
		}
		splitmixShared.Seed(int64(d) + 100)
		if avg := testing.AllocsPerRun(runs, one); avg != 0 {
			t.Errorf("d=%d: Decode/DecodeBits allocates %.2f per shot, want 0", d, avg)
		}
	}
}

// TestCloneWarmUpAllocations gates what a decoder costs from birth, the
// regime of a sweep that builds one decoder per point and clones it per mc
// worker: a fresh Clone of a d = 13 sector graph plus its first 5 batches
// must stay within 100 allocations. Cluster merges and first touches
// allocate nothing; what remains is the Clone's fixed scratch and the
// arenas growing to their high-water mark.
func TestCloneWarmUpAllocations(t *testing.T) {
	g := sectorGraph(13, 14)
	proto := NewUnionFind(g)
	words := make([]uint64, g.NumNodes)
	preds := make([]uint64, 64)
	avg := testing.AllocsPerRun(10, func() {
		splitmixShared.Seed(13)
		u := proto.Clone()
		for i := 0; i < 5; i++ {
			randomDefectWords(splitmixShared, words, 3)
			u.DecodeBatch(words, 64, preds)
		}
	})
	if avg > 100 {
		t.Errorf("Clone plus 5 batches allocates %.0f times, want at most 100", avg)
	}
	t.Logf("Clone plus 5 batches: %.0f allocations", avg)
}

// splitmixShared backs the allocation tests: package-level so the measured
// closures draw randomness without capturing a fresh generator (and without
// any allocation attributable to the run itself).
var splitmixShared = splitmix.New(1)

// TestPeelBitmapWordBoundaries exercises the peel's node and edge bitmaps
// where they cross 64-bit word boundaries: graphs with 63, 64, 65, 127, 128
// and 129 nodes and edges, with defects and boundary edges pinned at
// indices 0, 63, 64 and N−1. Every entry point on one reused instance must
// match the reference, and both bitmaps must be all-zero after every call
// so no stale bit seeds the next shot's forest.
func TestPeelBitmapWordBoundaries(t *testing.T) {
	rng := splitmix.New(17)
	for _, n := range []int{63, 64, 65, 127, 128, 129} {
		g := wordBoundaryGraph(rng, n)
		ref := newRefUnionFind(g)
		u := NewUnionFind(g)
		clean := func(label string) {
			t.Helper()
			for i, w := range u.nodeBits {
				if w != 0 {
					t.Fatalf("n=%d %s: nodeBits[%d]=%#x after decode", n, label, i, w)
				}
			}
			for i, w := range u.edgeBits {
				if w != 0 {
					t.Fatalf("n=%d %s: edgeBits[%d]=%#x after decode", n, label, i, w)
				}
			}
		}
		words := make([]uint64, n)
		preds := make([]uint64, 64)
		dense := make([]bool, n)
		for batch := 0; batch < 20; batch++ {
			randomDefectWords(rng, words, 1+batch%4)
			for _, i := range boundaryIndices(n) {
				words[i] |= rng.Uint64()
			}
			u.DecodeBatch(words, 64, preds)
			clean("DecodeBatch")
			for s := 0; s < 64; s++ {
				for d := range dense {
					dense[d] = words[d]>>uint(s)&1 == 1
				}
				want := ref.Decode(dense)
				if preds[s] != want {
					t.Fatalf("n=%d batch %d shot %d: DecodeBatch=%d reference=%d", n, batch, s, preds[s], want)
				}
				if got := u.DecodeBits(words, s); got != want {
					t.Fatalf("n=%d batch %d shot %d: DecodeBits=%d reference=%d", n, batch, s, got, want)
				}
				clean("DecodeBits")
				if got := u.Decode(dense); got != want {
					t.Fatalf("n=%d batch %d shot %d: Decode=%d reference=%d", n, batch, s, got, want)
				}
				clean("Decode")
			}
		}
	}
}

// boundaryIndices lists the word-boundary indices 0, 63, 64 and n−1 that
// exist in a range of n.
func boundaryIndices(n int) []int {
	var out []int
	for _, i := range []int{0, 63, 64, n - 1} {
		if i < n && (len(out) == 0 || out[len(out)-1] != i) {
			out = append(out, i)
		}
	}
	return out
}

// wordBoundaryGraph is a randomGraph with n nodes and n edges whose edges at
// the word-boundary indices are boundary edges on the word-boundary nodes,
// so both peel bitmaps get bits set in their first and last positions.
func wordBoundaryGraph(rng *splitmix.RNG, n int) *Graph {
	g := randomGraph(rng, n, n)
	idx := boundaryIndices(n)
	for k, ei := range idx {
		g.Edges[ei] = Edge{U: idx[len(idx)-1-k], V: Boundary, ObsMask: uint64(k&1) + 1}
	}
	return g
}

// benchBatches draws n dense 64-shot detector batches (about a quarter of
// detectors firing) for g and returns them with the mean defect count per
// batch.
func benchBatches(g *Graph, seed int64, n int) ([][]uint64, float64) {
	rng := splitmix.New(seed)
	batches := make([][]uint64, n)
	defects := 0
	for i := range batches {
		batches[i] = make([]uint64, g.NumNodes)
		randomDefectWords(rng, batches[i], 2)
		for _, w := range batches[i] {
			defects += bits.OnesCount64(w)
		}
	}
	return batches, float64(defects) / float64(n)
}

// BenchmarkUnionFindDecodeBatch decodes dense 64-shot batches (about a
// quarter of detectors firing) on sector graphs at d = 5 and d = 13 and
// reports ns/defect, so the decoder's scaling in the defect count shows in
// plain go test -bench: near-linear decoding keeps the d13/d5 ratio small.
func BenchmarkUnionFindDecodeBatch(b *testing.B) {
	for _, d := range []int{5, 13} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			g := sectorGraph(d, d+1)
			u := NewUnionFind(g)
			batches, perBatch := benchBatches(g, int64(d), 16)
			preds := make([]uint64, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.DecodeBatch(batches[i%len(batches)], 64, preds)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perBatch), "ns/defect")
		})
	}
}

// BenchmarkUnionFindDecodeBatchCold measures a decoder from birth: each
// iteration clones a fresh decoder and decodes its first 5 batches (320
// shots), the regime of a sweep that builds one decoder per point and
// clones it per mc worker, so warm-up allocation and its GC are paid on
// every iteration rather than amortised away.
func BenchmarkUnionFindDecodeBatchCold(b *testing.B) {
	for _, d := range []int{5, 13} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			g := sectorGraph(d, d+1)
			proto := NewUnionFind(g)
			batches, perBatch := benchBatches(g, int64(d), 5)
			preds := make([]uint64, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := proto.Clone()
				for _, words := range batches {
					u.DecodeBatch(words, 64, preds)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*perBatch*float64(len(batches))), "ns/defect")
		})
	}
}
