package graph

import "sort"

// EdgeIndex assigns every undirected edge a dense id in [0, NumEdges()), in
// the (U, V) order of Edges(), straight off the CSR: id(u, v) is the rank
// of v among u's higher-numbered neighbors plus u's prefix of up-edges.
// Dense ids replace the map[packed-pair] lookups the sweep metrics used to
// pay on every path hop — a lookup is one binary search over one adjacency
// list, and per-edge state (coverage marks, accumulators) becomes a flat
// array. The index is immutable after construction and safe for concurrent
// readers.
type EdgeIndex struct {
	g       *Graph
	upStart []int32 // index into adj of u's first neighbor > u
	base    []int32 // edge id of u's first up-edge; base[n] == NumEdges()
}

// NewEdgeIndex builds the index in one CSR pass.
func NewEdgeIndex(g *Graph) *EdgeIndex {
	n := g.NumNodes()
	ix := &EdgeIndex{g: g, upStart: make([]int32, n), base: make([]int32, n+1)}
	for u := int32(0); u < int32(n); u++ {
		nb := g.Neighbors(u)
		// Adjacency is sorted ascending: the up-neighbors are the tail.
		lo := sort.Search(len(nb), func(i int) bool { return nb[i] > u })
		ix.upStart[u] = g.off[u] + int32(lo)
		ix.base[u+1] = ix.base[u] + int32(len(nb)-lo)
	}
	return ix
}

// NumEdges returns the number of indexed edges.
func (ix *EdgeIndex) NumEdges() int { return int(ix.base[len(ix.base)-1]) }

// ID returns the dense id of edge {u, v}, or -1 if the graph has no such
// edge. Orientation does not matter.
func (ix *EdgeIndex) ID(u, v int32) int32 {
	if u > v {
		u, v = v, u
	}
	lo, hi := ix.upStart[u], ix.g.off[u+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if ix.g.adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == ix.g.off[u+1] || ix.g.adj[lo] != v {
		return -1
	}
	return ix.base[u] + (lo - ix.upStart[u])
}

// ArcIDs returns a per-arc edge-id table parallel to the CSR adjacency:
// for the arc at position p in node u's adjacency slice, out[p] is
// ID(u, neighbor). One O(n+m) pass, no searches: up-arcs read their id
// straight off the (base, upStart) prefix sums, and each down-arc is the
// reverse of an up-arc that arrives in exactly the adjacency-prefix order
// (adjacency is ascending, and up-arcs are visited in ascending u), so a
// per-node cursor scatters the reverse ids sequentially. The table lets
// tight sweep loops trade the per-hop binary search of ID for one array
// read.
func (ix *EdgeIndex) ArcIDs() []uint32 {
	g := ix.g
	n := int32(g.NumNodes())
	out := make([]uint32, len(g.adj))
	cur := make([]int32, n)
	for v := int32(0); v < n; v++ {
		cur[v] = g.off[v]
	}
	for u := int32(0); u < n; u++ {
		for pos := ix.upStart[u]; pos < g.off[u+1]; pos++ {
			v := g.adj[pos]
			id := uint32(ix.base[u] + (pos - ix.upStart[u]))
			out[pos] = id
			out[cur[v]] = id
			cur[v]++
		}
	}
	return out
}
