package decoder

import (
	"fmt"
	"math/bits"
	"slices"

	"hetarch/internal/obs"
)

// Decode telemetry: one atomic add per shot, plus a defects-per-shot
// histogram — the distribution that explains decoder cost (union–find is
// almost-linear in defects, not graph size).
var (
	ufDecodes = obs.C("decoder.unionfind.decodes")
	ufDefects = obs.H("decoder.unionfind.defects_per_shot")
)

// Boundary is the virtual node index representing the open boundary of a
// matching graph. Defect chains may terminate on it at the cost of the
// edge's weight.
const Boundary = -1

// Edge is one error mechanism in a matching graph: it connects two detector
// nodes (or one node and the Boundary) and, when included in a correction,
// flips the logical observables in ObsMask.
type Edge struct {
	U, V    int
	ObsMask uint64
}

// Graph is a space–time matching graph: nodes are detectors, edges are
// single error mechanisms.
type Graph struct {
	NumNodes int
	Edges    []Edge
}

// Validate checks edge endpoints.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if e.U < 0 || e.U >= g.NumNodes {
			return fmt.Errorf("decoder: edge %d has bad endpoint U=%d", i, e.U)
		}
		if e.V != Boundary && (e.V < 0 || e.V >= g.NumNodes) {
			return fmt.Errorf("decoder: edge %d has bad endpoint V=%d", i, e.V)
		}
	}
	return nil
}

// UnionFind is the Delfosse–Nickerson union–find decoder over a matching
// graph. It achieves near-matching accuracy on surface-code graphs at
// almost-linear cost — in the number of *defects*, not the graph size,
// which is what lets the Fig. 6/7 experiments run Monte Carlo at distance
// 13+ where shots with zero or one defect dominate.
//
// Sparsity rests on four mechanisms:
//
//   - Epoch-stamped node scratch. The per-node arrays (cluster forest,
//     frontier links, peel state) carry a generation stamp; "resetting"
//     for the next shot is a single counter bump, and state is lazily
//     initialized the first time a node is touched in a given decode.
//     Per-edge state is one growth byte, zeroed after the peel through the
//     list of edges the decode grew. A shot with d defects therefore costs
//     O(cluster area around the defects), never O(NumNodes + Edges).
//   - An intrusive cluster frontier. Each cluster is a singly linked list
//     of its member nodes that still have an incident edge below growth 2
//     (next links members; head and tail are valid at roots; left counts a
//     node's ungrown incident edges). A union splices the smaller root's
//     list onto the larger root's tail in O(1), and a growth pass scans each
//     listed node's incident edges straight from the shared CSR adjacency,
//     so neither touching a node nor merging clusters copies or allocates
//     anything. The pass stops at the tail the list had when it started:
//     nodes spliced in during the pass grow next round. Afterwards one walk
//     unlinks the nodes whose edges are all fully grown.
//   - Arena slices. All transient lists (active roots, odd roots, grown
//     edges, BFS queue/order, the batch defect lists) live on the decoder
//     and are reused across calls, so steady-state decoding performs zero
//     allocations. Their capacity is reached during a decoder's warm-up,
//     which every Clone pays afresh.
//   - Self-clearing bitmaps. Peel roots are marked in a node bitmap and
//     grown boundary edges in an edge bitmap; peel walks each word by word
//     with bits.TrailingZeros64, zeroing words as it reads them. The walk
//     visits in ascending index order with duplicates merged, in
//     O(touched + N/64), and leaves the bitmaps clean for the next decode.
//
// Growth is exact, edge for edge, against the reference decoder the tests
// pin it to, which keeps a copied edge list per cluster. That list is
// always the concatenation, in merge order, of the members' incident-edge
// lists, filtered only of fully grown edges, which every visit skips
// anyway. The frontier visits the same ungrown edges in the same order, so
// in every pass an ungrown edge gains min(2, growth + its endpoints among
// the pass-start members), and the unions and their roots, the parity and
// boundary flags, the peel seeds and the final growth-2 edge set all come
// out identical.
//
// The decoder is reusable: Decode/DecodeBatch may be called
// repeatedly with different defect patterns. It is not safe for concurrent
// use; mc workers each hold a Clone.
type UnionFind struct {
	g *Graph
	// Adjacency in compressed sparse row form: node i's incident edge
	// indices, ascending, are adjEdges[adjStart[i]:adjStart[i+1]] (boundary
	// edges listed on their real endpoint). Read-only after construction and
	// shared by every Clone.
	adjStart []int
	adjEdges []int

	// epoch is the decode generation. A node whose stamp differs from it is
	// in its pristine start-of-decode state; touchNode initializes lazily
	// on first contact.
	epoch     uint64
	nodeEpoch []uint64

	// cluster state, valid where nodeEpoch == epoch
	parent   []int
	size     []int
	parity   []int  // defect count mod 2 per cluster root
	boundary []bool // cluster touches the boundary
	// growth is the per-edge growth 0..2; 2 means the edge is on the peel
	// forest. It is all-zero between decodes: grown lists the edges this
	// decode has grown, and peel zeroes them once it is done with them.
	growth []uint8
	grown  []int
	// Cluster frontier, valid where nodeEpoch == epoch: the member nodes of
	// a cluster with edges left to grow, linked head[root] → next → …
	// tail[root] (−1 terminates; head and tail are −1 for an empty
	// frontier). left[i] counts node i's incident edges below growth 2.
	next []int
	head []int
	tail []int
	left []int

	// growth-phase arenas
	defects   []int    // scratch defect list for the dense entry point
	active    []int    // cluster representatives, first-defect order
	oddRoots  []int    // odd, boundary-free roots for the current round
	seenGen   uint64   // generation for seenStamp
	seenStamp []uint64 // per-node dedup stamp for odd/active recomputation

	// Peel seeds, set during growth and zeroed by peel's walks: nodeBits
	// marks candidate BFS roots (defects and both endpoints of fully grown
	// interior edges), edgeBits marks fully grown boundary edges, whose
	// endpoints peel seeds first.
	nodeBits []uint64
	edgeBits []uint64

	// peel arenas, valid where peelEpoch == epoch
	peelEpoch    []uint64
	visited      []bool
	defNow       []bool
	parentEdge   []int
	boundaryEdge []int
	order        []int
	queue        []int // BFS ring: qHead indexes the next pop, so the arena's
	qHead        int   // backing array is reused instead of sliced away

	// batchDefects holds a batch's per-shot defect lists back to back:
	// shot s's ascending list is batchDefects[batchStart[s]:batchStart[s+1]],
	// rebuilt by DecodeBatch's count-then-fill transpose of the packed
	// detector words.
	batchDefects []int
	batchStart   [65]int
}

// NewUnionFind builds a decoder for the graph.
func NewUnionFind(g *Graph) *UnionFind {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	// Counting pass, prefix sum, then a fill pass in edge order: each
	// node's slice comes out ascending, the order an append-built list has.
	adjStart := make([]int, g.NumNodes+1)
	for _, e := range g.Edges {
		adjStart[e.U+1]++
		if e.V != Boundary {
			adjStart[e.V+1]++
		}
	}
	for i := 0; i < g.NumNodes; i++ {
		adjStart[i+1] += adjStart[i]
	}
	adjEdges := make([]int, adjStart[g.NumNodes])
	next := make([]int, g.NumNodes)
	copy(next, adjStart)
	for i, e := range g.Edges {
		adjEdges[next[e.U]] = i
		next[e.U]++
		if e.V != Boundary {
			adjEdges[next[e.V]] = i
			next[e.V]++
		}
	}
	return newUnionFind(g, adjStart, adjEdges)
}

// newUnionFind allocates a decoder's per-decode scratch around a built,
// shared adjacency: O(NumNodes + Edges) words in a fixed number of
// allocations, independent of graph size.
func newUnionFind(g *Graph, adjStart, adjEdges []int) *UnionFind {
	u := &UnionFind{g: g, adjStart: adjStart, adjEdges: adjEdges}
	u.nodeEpoch = make([]uint64, g.NumNodes)
	u.parent = make([]int, g.NumNodes)
	u.size = make([]int, g.NumNodes)
	u.parity = make([]int, g.NumNodes)
	u.boundary = make([]bool, g.NumNodes)
	u.growth = make([]uint8, len(g.Edges))
	u.next = make([]int, g.NumNodes)
	u.head = make([]int, g.NumNodes)
	u.tail = make([]int, g.NumNodes)
	u.left = make([]int, g.NumNodes)
	u.seenStamp = make([]uint64, g.NumNodes)
	u.peelEpoch = make([]uint64, g.NumNodes)
	u.visited = make([]bool, g.NumNodes)
	u.defNow = make([]bool, g.NumNodes)
	u.parentEdge = make([]int, g.NumNodes)
	u.boundaryEdge = make([]int, g.NumNodes)
	u.nodeBits = make([]uint64, (g.NumNodes+63)/64)
	u.edgeBits = make([]uint64, (len(g.Edges)+63)/64)
	return u
}

// Clone returns an independent decoder over the same graph. The graph and
// the CSR adjacency are read-only and shared; only the per-decode scratch
// (cluster forest, growth and peel state, arenas) is allocated afresh, in
// a fixed number of allocations. Fresh scratch is equivalent to a deep copy
// because all of it is epoch-invalidated or cleared at the end of each
// decode, so a clone decodes bit-identically to NewUnionFind.
func (u *UnionFind) Clone() *UnionFind {
	return newUnionFind(u.g, u.adjStart, u.adjEdges)
}

// incident returns node i's incident edge indices in ascending order.
func (u *UnionFind) incident(i int) []int {
	return u.adjEdges[u.adjStart[i]:u.adjStart[i+1]]
}

// touchNode lazily initializes node i's cluster state for the current
// decode: a singleton, even-parity, boundary-free cluster whose frontier is
// the node itself, with all of its incident edges left to grow.
func (u *UnionFind) touchNode(i int) {
	if u.nodeEpoch[i] == u.epoch {
		return
	}
	u.nodeEpoch[i] = u.epoch
	u.parent[i] = i
	u.size[i] = 1
	u.parity[i] = 0
	u.boundary[i] = false
	u.next[i] = -1
	u.head[i] = i
	u.tail[i] = i
	u.left[i] = u.adjStart[i+1] - u.adjStart[i]
}

// touchPeel lazily initializes node i's peel-phase state.
func (u *UnionFind) touchPeel(i int) {
	if u.peelEpoch[i] == u.epoch {
		return
	}
	u.peelEpoch[i] = u.epoch
	u.visited[i] = false
	u.defNow[i] = false
	u.parentEdge[i] = -1
	u.boundaryEdge[i] = -1
}

func (u *UnionFind) find(x int) int {
	u.touchNode(x)
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the clusters of a and b, returning the new root.
func (u *UnionFind) union(a, b int) int {
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
	if u.head[rb] >= 0 {
		if u.head[ra] >= 0 {
			u.next[u.tail[ra]] = u.head[rb]
		} else {
			u.head[ra] = u.head[rb]
		}
		u.tail[ra] = u.tail[rb]
	}
	return ra
}

// prune unlinks from root's frontier the nodes whose incident edges are all
// fully grown: they have nothing left to grow in any later pass.
func (u *UnionFind) prune(root int) {
	link, tail := &u.head[root], -1
	for n := u.head[root]; n >= 0; n = u.next[n] {
		if u.left[n] > 0 {
			*link = n
			link = &u.next[n]
			tail = n
		}
	}
	*link = -1
	u.tail[root] = tail
}

// Decode takes the dense defect pattern (one bool per node) and returns
// the predicted logical observable flips of the minimum-ish-weight
// correction. It is the reference entry point: it gathers the set indices
// and delegates to the sparse core, so dense callers (tests, the CHP
// cross-validation oracle) and the packed entry point below exercise the
// identical algorithm.
func (u *UnionFind) Decode(defects []bool) uint64 {
	if len(defects) != u.g.NumNodes {
		panic("decoder: defect vector length mismatch")
	}
	u.defects = u.defects[:0]
	for i, d := range defects {
		if d {
			u.defects = append(u.defects, i)
		}
	}
	return u.decode(u.defects)
}

// DecodeBatch decodes the first nshots shots of a packed 64-shot detector
// batch, writing per-shot observable-flip predictions into preds[:nshots].
// Two passes over the detector words — count each shot's defects, then
// fill — transpose the set bits into per-shot defect lists laid out back to
// back in one arena (O(detectors + defects) for the whole batch, instead of
// 64 dense scans), then each shot runs through the sparse core.
// Allocation-free after warm-up.
func (u *UnionFind) DecodeBatch(words []uint64, nshots int, preds []uint64) {
	if len(words) != u.g.NumNodes {
		panic("decoder: detector word count mismatch")
	}
	if nshots < 0 || nshots > 64 {
		panic("decoder: batch shot count out of range")
	}
	if len(preds) < nshots {
		panic("decoder: prediction buffer too small")
	}
	mask := ^uint64(0)
	if nshots < 64 {
		mask = 1<<uint(nshots) - 1
	}
	start := &u.batchStart
	*start = [65]int{}
	for _, w := range words {
		for w &= mask; w != 0; w &= w - 1 {
			start[bits.TrailingZeros64(w)+1]++
		}
	}
	for s := 0; s < 64; s++ {
		start[s+1] += start[s]
	}
	u.batchDefects = slices.Grow(u.batchDefects[:0], start[64])[:start[64]]
	// Detectors are visited in ascending order, so each shot's list fills
	// ascending.
	fill := [64]int(start[:64])
	for d, w := range words {
		for w &= mask; w != 0; w &= w - 1 {
			s := bits.TrailingZeros64(w)
			u.batchDefects[fill[s]] = d
			fill[s]++
		}
	}
	for s := 0; s < nshots; s++ {
		preds[s] = u.decode(u.batchDefects[start[s]:start[s+1]])
	}
}

// decode is the sparse core: defects is the strictly-increasing list of
// defect node indices. All scratch is epoch-stamped or arena-backed, so a
// steady-state call allocates nothing and touches only the neighborhoods
// the defects grow into.
func (u *UnionFind) decode(defects []int) uint64 {
	ufDecodes.Inc()
	ufDefects.Observe(int64(len(defects)))
	u.grow(defects)
	return u.peel(defects)
}

// grow runs the growth phase of a new decode: it seeds one odd cluster per
// defect, then grows every odd, boundary-free cluster by a half-step per
// round until none is left or none can grow. It leaves the fully grown
// edges at growth 2 (every edge it grew is listed in grown) and the peel
// seeds in nodeBits and edgeBits, for peel to consume.
func (u *UnionFind) grow(defects []int) {
	u.epoch++

	// Seed the defect clusters. Active clusters are represented in
	// first-defect order, the order the growth loop visits them in.
	u.active = u.active[:0]
	for _, i := range defects {
		u.touchNode(i)
		u.parity[i] = 1
		u.active = append(u.active, i)
		setBit(u.nodeBits, i)
	}

	// Growth loop: each iteration grows every boundary edge of every odd,
	// boundary-free cluster by one half-step; fully-grown edges merge
	// clusters.
	for {
		u.oddRoots = u.oddRoots[:0]
		u.seenGen++
		for _, a := range u.active {
			r := u.find(a)
			if u.seenStamp[r] == u.seenGen {
				continue
			}
			u.seenStamp[r] = u.seenGen
			if u.parity[r] == 1 && !u.boundary[r] {
				u.oddRoots = append(u.oddRoots, r)
			}
		}
		if len(u.oddRoots) == 0 {
			break
		}
		progress := false
		for _, root := range u.oddRoots {
			root = u.find(root) // may have been merged earlier this round
			// Grow the ungrown edges of the cluster's frontier nodes. The
			// walk stops at the pass-start tail: nodes that unions splice
			// in during this pass lie after it and grow in a later round.
			for n, last := u.head[root], u.tail[root]; n >= 0; n = u.next[n] {
				for _, ei := range u.incident(n) {
					if u.growth[ei] >= 2 {
						continue
					}
					if u.growth[ei] == 0 {
						u.grown = append(u.grown, ei)
					}
					u.growth[ei]++
					progress = true
					if u.growth[ei] < 2 {
						continue
					}
					e := u.g.Edges[ei]
					if e.V == Boundary {
						setBit(u.edgeBits, ei)
						u.boundary[u.find(e.U)] = true
					} else {
						setBit(u.nodeBits, e.U)
						setBit(u.nodeBits, e.V)
						// n is in this cluster, so the union's root is
						// the cluster's root from here on.
						root = u.union(e.U, e.V)
						u.left[e.V]--
					}
					u.left[e.U]--
				}
				if n == last {
					break
				}
			}
			u.prune(root)
		}
		if !progress {
			// An odd cluster has exhausted its neighborhood without reaching
			// the boundary or another defect (disconnected graph). Stop;
			// the stranded defect surfaces as a decoding failure in peel.
			break
		}
		// Recompute active roots, keeping first-occurrence order.
		u.seenGen++
		next := u.active[:0]
		for _, a := range u.active {
			r := u.find(a)
			if u.seenStamp[r] != u.seenGen {
				u.seenStamp[r] = u.seenGen
				next = append(next, r)
			}
		}
		u.active = next
	}
}

// setBit sets bit i of the bitmap bm.
func setBit(bm []uint64, i int) { bm[i>>6] |= 1 << uint(i&63) }

// peel extracts a correction from the grown cluster forests and returns the
// XOR of the observable masks of the chosen edges. Only nodes reachable
// from grown edges or defects are visited; everything else is untouched
// scratch from some earlier epoch. It consumes what grow left: the seed
// bitmaps are zeroed as they are walked and the grown edges' growth bytes
// at the end, so the next decode starts clean.
func (u *UnionFind) peel(defects []int) uint64 {
	for _, d := range defects {
		u.touchPeel(d)
		u.defNow[d] = true
	}

	// Build BFS forests over fully-grown edges. Roots are nodes adjacent to
	// grown boundary edges (so defects can drain into the boundary), then
	// the lowest-index unvisited node of each remaining tree. Both bitmap
	// walks run in ascending index order, so the traversal matches a dense
	// index-order scan.
	u.order = u.order[:0]
	u.queue = u.queue[:0]
	u.qHead = 0
	for wi, w := range u.edgeBits {
		u.edgeBits[wi] = 0
		for ; w != 0; w &= w - 1 {
			ei := wi<<6 | bits.TrailingZeros64(w)
			v := u.g.Edges[ei].U
			u.touchPeel(v)
			if !u.visited[v] {
				u.visited[v] = true
				u.boundaryEdge[v] = ei
				u.queue = append(u.queue, v)
			}
		}
	}
	u.bfs() // drain the boundary-rooted trees first
	for wi, w := range u.nodeBits {
		u.nodeBits[wi] = 0
		for ; w != 0; w &= w - 1 {
			start := wi<<6 | bits.TrailingZeros64(w)
			u.touchPeel(start)
			if !u.visited[start] {
				u.visited[start] = true
				u.queue = append(u.queue, start)
				u.bfs()
			}
		}
	}

	// Peel in reverse BFS order: leaves first. A defect at a node is pushed
	// along its parent edge (flipping the correction) onto its parent; roots
	// with boundary edges drain into the boundary.
	var obsMask uint64
	for i := len(u.order) - 1; i >= 0; i-- {
		v := u.order[i]
		if !u.defNow[v] {
			continue
		}
		if pe := u.parentEdge[v]; pe >= 0 {
			e := u.g.Edges[pe]
			obsMask ^= e.ObsMask
			other := e.U
			if other == v {
				other = e.V
			}
			u.defNow[v] = false
			u.defNow[other] = !u.defNow[other]
		} else if be := u.boundaryEdge[v]; be >= 0 {
			obsMask ^= u.g.Edges[be].ObsMask
			u.defNow[v] = false
		}
		// A defect stuck at a root with no boundary edge means the cluster
		// had odd parity without boundary contact, which the growth phase
		// prevents; leave it (decoder failure surfaces as a logical error).
	}
	for _, ei := range u.grown {
		u.growth[ei] = 0
	}
	u.grown = u.grown[:0]
	return obsMask
}

// bfs drains the queue over fully-grown edges, appending visits to order
// and recording each node's tree parent edge.
func (u *UnionFind) bfs() {
	for u.qHead < len(u.queue) {
		v := u.queue[u.qHead]
		u.qHead++
		u.order = append(u.order, v)
		for _, ei := range u.incident(v) {
			if u.growth[ei] < 2 {
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
			u.touchPeel(w)
			if !u.visited[w] {
				u.visited[w] = true
				u.parentEdge[w] = ei
				u.queue = append(u.queue, w)
			}
		}
	}
}
