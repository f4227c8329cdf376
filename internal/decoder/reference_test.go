package decoder

// refUnionFind is the pre-sparse union–find decoder, kept verbatim as the
// oracle for the zero-alloc rewrite: it resets dense state over the whole
// graph on every Decode, uses map-based odd/active recomputation, and
// allocates its peel scratch per call. The rewrite must reproduce its
// predictions bit for bit (TestSparseDecoderMatchesReference, the fuzz
// target), so the historical behavior — including the in-place edge-list
// compaction whose length update was discarded (`_ = kept`), which leaves
// partially rewritten lists behind — is preserved exactly, not cleaned up.
//
// That compaction is behaviour-neutral. The rewrite only moves entries
// still below growth 2 forward, over fully grown ones, so the list keeps
// every ungrown entry and gains extra copies only of edges at growth 1 (a
// kept entry whose original slot lies past the kept prefix). The first
// visit of a growth-1 edge completes it; any further visit falls into the
// growth >= 2 skip. So in every pass an ungrown edge still gains
// min(2, growth + its endpoints in the cluster), exactly as with a list
// that is compacted properly or, as the sparse decoder does, never
// materialised at all.
//
// The only additions are the correction capture (chosen edge indices, so
// tests can validate the correction's syndrome against the defects) and
// the removal of telemetry.
type refUnionFind struct {
	g   *Graph
	adj [][]int

	parent   []int
	size     []int
	parity   []int
	boundary []bool
	growth   []int
	onTree   []bool
	edgeList [][]int

	// correction is the edge set chosen by the last peel, for syndrome
	// validation in tests. Not part of the historical decoder.
	correction []int
}

func newRefUnionFind(g *Graph) *refUnionFind {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	u := &refUnionFind{g: g}
	u.adj = make([][]int, g.NumNodes)
	for i, e := range g.Edges {
		u.adj[e.U] = append(u.adj[e.U], i)
		if e.V != Boundary {
			u.adj[e.V] = append(u.adj[e.V], i)
		}
	}
	u.parent = make([]int, g.NumNodes)
	u.size = make([]int, g.NumNodes)
	u.parity = make([]int, g.NumNodes)
	u.boundary = make([]bool, g.NumNodes)
	u.growth = make([]int, len(g.Edges))
	u.onTree = make([]bool, len(g.Edges))
	u.edgeList = make([][]int, g.NumNodes)
	return u
}

func (u *refUnionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *refUnionFind) union(a, b int) int {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.parity[ra] = (u.parity[ra] + u.parity[rb]) % 2
	u.boundary[ra] = u.boundary[ra] || u.boundary[rb]
	u.edgeList[ra] = append(u.edgeList[ra], u.edgeList[rb]...)
	u.edgeList[rb] = nil
	return ra
}

func (u *refUnionFind) Decode(defects []bool) uint64 {
	if len(defects) != u.g.NumNodes {
		panic("decoder: defect vector length mismatch")
	}
	// reset state
	for i := 0; i < u.g.NumNodes; i++ {
		u.parent[i] = i
		u.size[i] = 1
		u.boundary[i] = false
		if defects[i] {
			u.parity[i] = 1
		} else {
			u.parity[i] = 0
		}
		u.edgeList[i] = append(u.edgeList[i][:0], u.adj[i]...)
	}
	for i := range u.growth {
		u.growth[i] = 0
		u.onTree[i] = false
	}

	active := []int{}
	for i, d := range defects {
		if d {
			active = append(active, i)
		}
	}

	for {
		odd := refOdd(u, active)
		if len(odd) == 0 {
			break
		}
		progress := false
		for _, root := range odd {
			root = u.find(root)
			list := u.edgeList[root]
			kept := list[:0]
			for _, ei := range list {
				if u.growth[ei] >= 2 {
					continue
				}
				u.growth[ei]++
				progress = true
				if u.growth[ei] == 2 {
					e := u.g.Edges[ei]
					u.onTree[ei] = true
					if e.V == Boundary {
						r := u.find(e.U)
						u.boundary[r] = true
					} else {
						newRoot := u.union(e.U, e.V)
						if newRoot != root {
							root = newRoot
						}
					}
					continue
				}
				kept = append(kept, ei)
			}
			if u.find(root) == root && len(u.edgeList[root]) >= len(list) {
				_ = kept
			}
		}
		if !progress {
			break
		}
		seen := map[int]bool{}
		next := active[:0]
		for _, a := range active {
			r := u.find(a)
			if !seen[r] {
				seen[r] = true
				next = append(next, r)
			}
		}
		active = next
	}

	return u.peel(defects)
}

func refOdd(u *refUnionFind, active []int) []int {
	var out []int
	seen := map[int]bool{}
	for _, a := range active {
		r := u.find(a)
		if seen[r] {
			continue
		}
		seen[r] = true
		if u.parity[r] == 1 && !u.boundary[r] {
			out = append(out, r)
		}
	}
	return out
}

func (u *refUnionFind) peel(defects []bool) uint64 {
	n := u.g.NumNodes
	def := make([]bool, n)
	copy(def, defects)
	u.correction = u.correction[:0]

	visited := make([]bool, n)
	parentEdge := make([]int, n)
	order := make([]int, 0, n)

	queue := []int{}
	boundaryEdge := make([]int, n)
	for i := range boundaryEdge {
		boundaryEdge[i] = -1
		parentEdge[i] = -1
	}
	for ei, e := range u.g.Edges {
		if u.onTree[ei] && e.V == Boundary && !visited[e.U] {
			visited[e.U] = true
			boundaryEdge[e.U] = ei
			queue = append(queue, e.U)
		}
	}
	bfs := func() {
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, ei := range u.adj[v] {
				if !u.onTree[ei] {
					continue
				}
				e := u.g.Edges[ei]
				var w int
				switch {
				case e.V == Boundary:
					continue
				case e.U == v:
					w = e.V
				default:
					w = e.U
				}
				if !visited[w] {
					visited[w] = true
					parentEdge[w] = ei
					queue = append(queue, w)
				}
			}
		}
	}
	bfs()
	for start := 0; start < n; start++ {
		if !visited[start] {
			visited[start] = true
			queue = append(queue, start)
			bfs()
		}
	}

	var obs uint64
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if !def[v] {
			continue
		}
		if pe := parentEdge[v]; pe >= 0 {
			e := u.g.Edges[pe]
			obs ^= e.ObsMask
			u.correction = append(u.correction, pe)
			other := e.U
			if other == v {
				other = e.V
			}
			def[v] = false
			def[other] = !def[other]
		} else if be := boundaryEdge[v]; be >= 0 {
			obs ^= u.g.Edges[be].ObsMask
			u.correction = append(u.correction, be)
			def[v] = false
		}
	}
	return obs
}
