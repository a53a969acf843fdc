package graph

// LevelGraph is the form of a graph that MSBFSScratch.RunLevels sweeps: a
// copy with every pendant leaf folded into its neighbour and the kept nodes
// numbered in BFS order. A pendant leaf is a node of degree 1 whose
// neighbour, its anchor, has degree 2 or more. Each leaf sits exactly one
// hop beyond its anchor from every other node, so the sweep counts an
// anchor's leaves on the level after the anchor's and never visits them;
// a leaf source runs from its anchor with its row shifted by one level.
// The fold is one round only: a two-node component stays whole, and
// isolated nodes stay.
//
// The kept nodes are numbered component by component, each from its
// lowest-id kept node, visiting neighbours in adjacency order, so nodes
// near each other in the graph sit near each other in the sweep's strips,
// and the copy is a function of the graph alone. A LevelGraph is
// immutable and safe for concurrent sweeps.
type LevelGraph struct {
	c      Graph   // the kept nodes and the edges among them, renumbered
	leaves []int32 // leaves[v]: the pendant leaves folded into kept node v
	// id[u] is node u's number in c, or ^ its anchor's number if u is a
	// folded leaf; len(id) is the graph's node count.
	id []int32
}

// NewLevelGraph builds g's level graph. It takes O(n + m) time and holds
// the kept nodes' CSR, one leaf count per kept node and one id per node.
func NewLevelGraph(g *Graph) *LevelGraph {
	n := g.NumNodes()
	leaf := func(u int32) bool {
		return g.Degree(u) == 1 && g.Degree(g.adj[g.off[u]]) >= 2
	}
	id := make([]int32, n)
	for u := range id {
		id[u] = Unreached
	}
	// order[v] is the node of g numbered v: the BFS queue of every
	// component in turn.
	order := make([]int32, 0, n)
	for r := int32(0); r < int32(n); r++ {
		if id[r] != Unreached || leaf(r) {
			continue
		}
		id[r] = int32(len(order))
		order = append(order, r)
		for q := len(order) - 1; q < len(order); q++ {
			for _, w := range g.Neighbors(order[q]) {
				if id[w] == Unreached && !leaf(w) {
					id[w] = int32(len(order))
					order = append(order, w)
				}
			}
		}
	}
	k := len(order)
	leaves := make([]int32, k)
	off := make([]int32, k+1)
	for v, u := range order {
		kept := int32(0)
		for _, w := range g.Neighbors(u) {
			if leaf(w) {
				leaves[v]++
				id[w] = ^int32(v)
			} else {
				kept++
			}
		}
		off[v+1] = off[v] + kept
	}
	// Scatter each kept node into its kept neighbours' rows in ascending
	// number, so every row comes out sorted.
	adj := make([]int32, off[k])
	next := make([]int32, k)
	copy(next, off)
	for v, u := range order {
		for _, w := range g.Neighbors(u) {
			if x := id[w]; x >= 0 {
				adj[next[x]] = int32(v)
				next[x]++
			}
		}
	}
	return &LevelGraph{c: Graph{off: off, adj: adj, m: len(adj) / 2}, leaves: leaves, id: id}
}
