// Package graph provides the undirected-graph substrate used throughout
// topocmp: a compact immutable adjacency representation, a streamed builder
// that normalizes away self-loops and duplicate edges, breadth-first
// traversals (distances, shortest-path counts, balls), component analysis,
// induced subgraphs, core reduction, and degree statistics.
//
// Node identifiers are dense int32 values in [0, N). Graphs are immutable
// once constructed, which makes them safe for concurrent metric computation.
package graph

import (
	"math"
	"sort"
)

// Graph is an immutable simple undirected graph. The zero value is the empty
// graph.
type Graph struct {
	// off[i]..off[i+1] delimits node i's neighbor slice in adj.
	off []int32
	adj []int32
	m   int // number of undirected edges
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the neighbor slice of node v. The slice is shared with
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.adj[g.off[v]:g.off[v+1]] }

// CSR exposes the graph's compressed-sparse-row arrays — off has length
// NumNodes()+1 and node v's neighbors are adj[off[v]:off[v+1]], sorted
// ascending. The slices are the graph's internal storage and must not be
// modified; they exist so tight kernels (and arc-position tables like
// EdgeIndex.ArcIDs) can index arcs directly instead of re-deriving
// positions per Neighbors call.
func (g *Graph) CSR() (off, adj []int32) { return g.off, g.adj }

// AvgDegree returns the average node degree 2|E|/|V|.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(n)
}

// MaxDegree returns the largest node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether an edge {u,v} exists. It runs in O(min deg) by
// binary search over the sorted neighbor slices.
func (g *Graph) HasEdge(u, v int32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// Edge is an undirected edge with U < V.
type Edge struct{ U, V int32 }

// Edges returns all edges with U < V, ordered by (U, V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				es = append(es, Edge{u, v})
			}
		}
	}
	return es
}

// Degrees returns a slice of node degrees indexed by node id.
func (g *Graph) Degrees() []int {
	ds := make([]int, g.NumNodes())
	for v := range ds {
		ds[v] = g.Degree(int32(v))
	}
	return ds
}

// FromEdges constructs a graph with n nodes from an edge list on the
// streamed builder: self-loops and duplicate edges are dropped.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewStreamBuilder(n)
	b.Reserve(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Graph()
}

// Unreached marks nodes not reached by a traversal.
const Unreached = int32(math.MaxInt32)

// BFS computes hop distances from src. dist[v] == Unreached for nodes in
// other components. The returned queue buffer holds the visit order of the
// reached nodes (src first).
func (g *Graph) BFS(src int32) (dist []int32, order []int32) {
	n := g.NumNodes()
	dist = make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	order = make([]int32, 0, n)
	dist[src] = 0
	order = append(order, src)
	for head := 0; head < len(order); head++ {
		u := order[head]
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreached {
				dist[v] = du + 1
				order = append(order, v)
			}
		}
	}
	return dist, order
}

// BFSCounts computes hop distances and the number of distinct shortest paths
// sigma[v] from src to every node (float64 to avoid overflow on dense
// shortest-path DAGs). order is the BFS visit order.
func (g *Graph) BFSCounts(src int32) (dist []int32, sigma []float64, order []int32) {
	n := g.NumNodes()
	dist = make([]int32, n)
	sigma = make([]float64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	order = make([]int32, 0, n)
	dist[src] = 0
	sigma[src] = 1
	order = append(order, src)
	for head := 0; head < len(order); head++ {
		u := order[head]
		du := dist[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreached {
				dist[v] = du + 1
				order = append(order, v)
			}
			if dist[v] == du+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	return dist, sigma, order
}

// Components labels each node with a component id and returns the labels and
// the size of each component.
func (g *Graph) Components() (label []int32, sizes []int) {
	n := g.NumNodes()
	label = make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	var queue []int32
	for s := int32(0); s < int32(n); s++ {
		if label[s] != -1 {
			continue
		}
		id := int32(len(sizes))
		label[s] = id
		queue = append(queue[:0], s)
		size := 0
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			size++
			for _, v := range g.Neighbors(u) {
				if label[v] == -1 {
					label[v] = id
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return label, sizes
}

// IsConnected reports whether the graph is connected (the empty graph is
// considered connected).
func (g *Graph) IsConnected() bool {
	if g.NumNodes() == 0 {
		return true
	}
	_, sizes := g.Components()
	return len(sizes) == 1
}

// LargestComponent returns the induced subgraph of the largest connected
// component plus the mapping orig[newID] = oldID. Ties break toward the
// component with the smallest minimum node id. A graph with no nodes has no
// component: the result is the empty graph and an empty mapping.
func (g *Graph) LargestComponent() (*Graph, []int32) {
	label, sizes := g.Components()
	if len(sizes) == 0 {
		return g.Subgraph(nil), []int32{}
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	nodes := make([]int32, 0, sizes[best])
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if label[v] == int32(best) {
			nodes = append(nodes, v)
		}
	}
	sub := g.Subgraph(nodes)
	return sub, nodes
}

// Subgraph returns the subgraph induced by nodes, which must not contain
// duplicates. New node i corresponds to nodes[i]. Built directly in CSR
// form (the source graph is simple, so the induced graph needs no edge
// dedup); use a SubgraphScratch to amortize the index arrays across calls.
func (g *Graph) Subgraph(nodes []int32) *Graph {
	var s SubgraphScratch
	return s.Induced(g, nodes)
}

// Core returns the subgraph obtained by recursively removing degree-1 nodes
// (the "core topology" the paper uses for router-level link values), plus the
// mapping orig[newID] = oldID. Isolated nodes are removed as well.
func (g *Graph) Core() (*Graph, []int32) {
	n := g.NumNodes()
	deg := make([]int, n)
	removed := make([]bool, n)
	var stack []int32
	for v := int32(0); v < int32(n); v++ {
		deg[v] = g.Degree(v)
		if deg[v] <= 1 {
			stack = append(stack, v)
			removed[v] = true
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Neighbors(u) {
			if removed[v] {
				continue
			}
			deg[v]--
			if deg[v] <= 1 {
				removed[v] = true
				stack = append(stack, v)
			}
		}
	}
	var nodes []int32
	for v := int32(0); v < int32(n); v++ {
		if !removed[v] {
			nodes = append(nodes, v)
		}
	}
	return g.Subgraph(nodes), nodes
}

// RemoveNodes returns the subgraph with the given nodes deleted, plus the
// orig mapping of the surviving nodes.
func (g *Graph) RemoveNodes(drop []int32) (*Graph, []int32) {
	gone := make([]bool, g.NumNodes())
	for _, v := range drop {
		gone[v] = true
	}
	var keep []int32
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if !gone[v] {
			keep = append(keep, v)
		}
	}
	return g.Subgraph(keep), keep
}
