package decoder

import (
	"testing"

	"hetarch/internal/splitmix"
)

// csrGraphs returns the graph shapes of FuzzUnionFindDecode: its seed
// corpus plus graphs decoded from random byte strings, which cover
// multi-edges, boundary-heavy nodes, isolated nodes and empty graphs.
func csrGraphs() []*Graph {
	rng := splitmix.New(23)
	graphs := []*Graph{
		sectorGraph(3, 4),
		sectorGraph(5, 6),
		wordBoundaryGraph(splitmix.New(1), 64),
		wordBoundaryGraph(splitmix.New(2), 129),
		randomGraph(rng, 32, 64),
	}
	for _, data := range [][]byte{{0}, {1, 0, 1, 3, 0, 1, 3, 1, 2, 0, 0xff}, {6, 0, 8, 1, 2, 3, 0, 4, 4, 2, 0x55, 0x55}} {
		g, _ := decodeFuzzGraph(data)
		graphs = append(graphs, g)
	}
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+int(rng.Uint64()%400))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		g, _ := decodeFuzzGraph(data)
		graphs = append(graphs, g)
	}
	return graphs
}

// TestCSRAdjacencyMatchesAppendBuilt checks that every node's CSR slice
// equals the append-built incidence list, and that a Clone shares the
// arrays instead of rebuilding them.
func TestCSRAdjacencyMatchesAppendBuilt(t *testing.T) {
	for gi, g := range csrGraphs() {
		u := NewUnionFind(g)
		if n := CSRMismatch(u); n >= 0 {
			t.Fatalf("graph %d (%d nodes, %d edges): node %d adjacency %v, append-built %v",
				gi, g.NumNodes, len(g.Edges), n, u.incident(n), appendAdjacency(g)[n])
		}
		if c := u.Clone(); &c.adjStart[0] != &u.adjStart[0] || (len(u.adjEdges) > 0 && &c.adjEdges[0] != &u.adjEdges[0]) {
			t.Fatalf("graph %d: Clone copied the adjacency instead of sharing it", gi)
		}
	}
}

// TestCloneDecodesLikeFresh decodes the same random batches with a clone
// of a well-used decoder and with a fresh NewUnionFind; every prediction
// must agree bit for bit.
func TestCloneDecodesLikeFresh(t *testing.T) {
	rng := splitmix.New(29)
	for gi, g := range csrGraphs() {
		if g.NumNodes == 0 {
			continue
		}
		aged := NewUnionFind(g)
		words := make([]uint64, g.NumNodes)
		preds, fpreds := make([]uint64, 64), make([]uint64, 64)
		for i := 0; i < 2; i++ {
			randomDefectWords(rng, words, 3)
			aged.DecodeBatch(words, 64, preds)
		}
		clone, fresh := aged.Clone(), NewUnionFind(g)
		for i := 0; i < 4; i++ {
			randomDefectWords(rng, words, 3)
			clone.DecodeBatch(words, 64, preds)
			fresh.DecodeBatch(words, 64, fpreds)
			for s := range preds {
				if preds[s] != fpreds[s] {
					t.Fatalf("graph %d batch %d shot %d: clone=%d fresh=%d", gi, i, s, preds[s], fpreds[s])
				}
			}
		}
	}
}
