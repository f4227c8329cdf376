package decoder_test

import (
	"testing"

	"hetarch/internal/decoder"
	"hetarch/internal/splitmix"
	"hetarch/internal/surface"
)

// surfaceGraph returns the space–time matching graph surface.New builds at
// distance d in the given basis.
func surfaceGraph(tb testing.TB, d int, basis byte) *decoder.Graph {
	tb.Helper()
	p := surface.DefaultParams(d)
	p.Basis = basis
	e, err := surface.New(p)
	if err != nil {
		tb.Fatal(err)
	}
	return e.Graph
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
