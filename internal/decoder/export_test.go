package decoder

import "slices"

// appendAdjacency is the append-built per-node incidence list the CSR
// adjacency replaced: edge indices in ascending order, boundary edges on
// their real endpoint.
func appendAdjacency(g *Graph) [][]int {
	adj := make([][]int, g.NumNodes)
	for i, e := range g.Edges {
		adj[e.U] = append(adj[e.U], i)
		if e.V != Boundary {
			adj[e.V] = append(adj[e.V], i)
		}
	}
	return adj
}

// CSRMismatch returns the first node whose CSR adjacency in u differs from
// the append-built list of u's graph, or -1 when every node matches.
func CSRMismatch(u *UnionFind) int {
	for i, want := range appendAdjacency(u.g) {
		if !slices.Equal(u.incident(i), want) {
			return i
		}
	}
	return -1
}
