package decoder

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"hetarch/internal/splitmix"
)

// bitmapIndices lists the set bits of bm in ascending order.
func bitmapIndices(bm []uint64) []int {
	var out []int
	for wi, w := range bm {
		for ; w != 0; w &= w - 1 {
			out = append(out, wi<<6|bits.TrailingZeros64(w))
		}
	}
	return out
}

// forestDiff decodes one defect pattern with u and with the reference and
// describes the first difference in what the growth phase hands the peel —
// the set of fully grown edges, the seeded nodes (defects plus both
// endpoints of every grown interior edge) and the seeded boundary edges —
// or in the prediction. It returns "" when everything agrees. The
// prediction alone can agree while the forests differ, so this is the
// stricter check.
func forestDiff(u *UnionFind, ref *refUnionFind, dense []bool) string {
	var defects []int
	for i, d := range dense {
		if d {
			defects = append(defects, i)
		}
	}
	want := ref.Decode(dense)
	var wantGrown, wantEdges []int
	wantNodes := slices.Clone(defects)
	for ei, on := range ref.onTree {
		if !on {
			continue
		}
		wantGrown = append(wantGrown, ei)
		if e := ref.g.Edges[ei]; e.V == Boundary {
			wantEdges = append(wantEdges, ei)
		} else {
			wantNodes = append(wantNodes, e.U, e.V)
		}
	}
	slices.Sort(wantNodes)
	wantNodes = slices.Compact(wantNodes)

	u.grow(defects)
	var grown []int
	for ei, g := range u.growth {
		if g == 2 {
			grown = append(grown, ei)
		}
	}
	nodes, edges := bitmapIndices(u.nodeBits), bitmapIndices(u.edgeBits)
	got := u.peel(defects)

	switch {
	case !slices.Equal(grown, wantGrown):
		return fmt.Sprintf("grown edges %v, reference %v", grown, wantGrown)
	case !slices.Equal(nodes, wantNodes):
		return fmt.Sprintf("seeded nodes %v, reference %v", nodes, wantNodes)
	case !slices.Equal(edges, wantEdges):
		return fmt.Sprintf("seeded boundary edges %v, reference %v", edges, wantEdges)
	case got != want:
		return fmt.Sprintf("prediction %d, reference %d", got, want)
	}
	return ""
}

// TestGrownForestMatchesReference pins the growth phase itself, not just
// its predictions, to the historical reference: on the graphs of
// TestSparseDecoderMatchesReference, over 64 random batches each on one
// reused decoder, every shot's fully grown edge set and peel seeds must
// equal the reference's exactly.
func TestGrownForestMatchesReference(t *testing.T) {
	rng := splitmix.New(13)
	graphs := referenceGraphs(rng)
	for _, name := range sortedNames(graphs) {
		g := graphs[name]
		t.Run(name, func(t *testing.T) {
			u := NewUnionFind(g)
			words := make([]uint64, g.NumNodes)
			for b := 0; b < 64; b++ {
				randomDefectWords(rng, words, 1+b%4)
				if msg := ForestMismatch(u, words, 64); msg != "" {
					t.Fatalf("batch %d: %s", b, msg)
				}
			}
		})
	}
}
