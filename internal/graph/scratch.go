package graph

import "sync"

// bfsScratchPool backs the Graph convenience traversals (Ball,
// Eccentricity) so their steady-state cost is the traversal itself, not
// fresh dist/order arrays per call. Hot loops should still hold their own
// scratch (or batch through MSBFSScratch); the pool only serves the
// one-shot entry points.
var bfsScratchPool = sync.Pool{New: func() any { return NewBFSScratch() }}

// BFSScratch holds reusable buffers for repeated breadth-first traversals so
// steady-state BFS is allocation-free. Visited-ness is epoch-stamped: each
// traversal bumps an epoch counter instead of clearing the arrays, so
// starting a traversal costs O(1) rather than O(N).
//
// A scratch is not safe for concurrent use; give each worker its own. The
// results of a traversal (Order, Dist, Sigma) are owned by the scratch and
// valid only until the next traversal.
type BFSScratch struct {
	live  Stamp // v reached in the current traversal
	dist  []int32
	sigma []float64 // shortest-path counts, valid where stamped (Counts only)
	order []int32
}

// NewBFSScratch returns an empty scratch; buffers grow on first use.
func NewBFSScratch() *BFSScratch { return &BFSScratch{} }

// begin sizes the buffers for an n-node graph and opens a new epoch.
func (s *BFSScratch) begin(n int) {
	if s.live.Begin(n) {
		s.dist = make([]int32, n)
		if s.sigma != nil {
			s.sigma = make([]float64, n)
		}
		s.order = make([]int32, 0, n)
	}
	s.order = s.order[:0]
}

// BFS runs a traversal from src and returns the reached nodes in visit
// order (src first). Distances are available through Dist until the next
// traversal.
func (s *BFSScratch) BFS(g *Graph, src int32) []int32 {
	s.begin(g.NumNodes())
	s.live.Visit(src)
	s.dist[src] = 0
	s.order = append(s.order, src)
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		for _, v := range g.Neighbors(u) {
			if s.live.Visit(v) {
				s.dist[v] = du + 1
				s.order = append(s.order, v)
			}
		}
	}
	return s.order
}

// Counts runs a traversal from src that also accumulates the number of
// distinct shortest paths to every reached node (the sigma values of
// Graph.BFSCounts), available through Sigma until the next traversal.
func (s *BFSScratch) Counts(g *Graph, src int32) []int32 {
	s.begin(g.NumNodes())
	if len(s.sigma) < s.live.Len() {
		s.sigma = make([]float64, s.live.Len())
	}
	s.live.Visit(src)
	s.dist[src] = 0
	s.sigma[src] = 1
	s.order = append(s.order, src)
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		for _, v := range g.Neighbors(u) {
			if s.live.Visit(v) {
				s.dist[v] = du + 1
				s.sigma[v] = 0
				s.order = append(s.order, v)
			}
			if s.dist[v] == du+1 {
				s.sigma[v] += s.sigma[u]
			}
		}
	}
	return s.order
}

// Ball runs a traversal from src bounded at h hops and returns the nodes
// within h hops (including src) in BFS order. Like BFS, the returned slice
// is owned by the scratch and valid only until the next traversal, and
// distances are available through Dist.
func (s *BFSScratch) Ball(g *Graph, src int32, h int) []int32 {
	s.begin(g.NumNodes())
	s.live.Visit(src)
	s.dist[src] = 0
	s.order = append(s.order, src)
	for head := 0; head < len(s.order); head++ {
		u := s.order[head]
		du := s.dist[u]
		if int(du) >= h {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if s.live.Visit(v) {
				s.dist[v] = du + 1
				s.order = append(s.order, v)
			}
		}
	}
	return s.order
}

// Dist returns v's hop distance in the last traversal, or Unreached.
func (s *BFSScratch) Dist(v int32) int32 {
	if !s.live.Seen(v) {
		return Unreached
	}
	return s.dist[v]
}

// Sigma returns v's shortest-path count in the last Counts traversal, or 0
// for unreached nodes.
func (s *BFSScratch) Sigma(v int32) float64 {
	if !s.live.Seen(v) {
		return 0
	}
	return s.sigma[v]
}

// Rows returns the raw distance and path-count rows backing the last Counts
// traversal, for hot loops that index them directly instead of paying the
// per-read epoch guard of Dist/Sigma. Entries are valid only at nodes that
// traversal reached — stale values persist elsewhere, so callers must gate
// on reachability (via Dist or the returned order) before indexing. Owned by
// the scratch until the next traversal.
func (s *BFSScratch) Rows() (dist []int32, sigma []float64) {
	return s.dist, s.sigma
}

// SubgraphScratch builds induced subgraphs repeatedly without the per-call
// hash maps of Graph.Subgraph. Like BFSScratch it is epoch-stamped and not
// safe for concurrent use.
type SubgraphScratch struct {
	live Stamp
	idx  []int32 // local id of stamped nodes
}

// NewSubgraphScratch returns an empty scratch; buffers grow on first use.
func NewSubgraphScratch() *SubgraphScratch { return &SubgraphScratch{} }

func (s *SubgraphScratch) begin(n int) {
	if s.live.Begin(n) {
		s.idx = make([]int32, n)
	}
}

// Induced returns the subgraph induced by nodes (which must not contain
// duplicates); new node i corresponds to nodes[i]. The result is identical
// to g.Subgraph(nodes) but built directly in CSR form: the only allocations
// are the returned graph's own arrays.
//
// Rows come out sorted without sorting: g is symmetric, so scattering each
// local node's in-set neighbours into their rows, visiting local ids in
// ascending order, appends every row's entries in ascending order.
func (s *SubgraphScratch) Induced(g *Graph, nodes []int32) *Graph {
	s.begin(g.NumNodes())
	for i, v := range nodes {
		s.live.Visit(v)
		s.idx[v] = int32(i)
	}
	k := len(nodes)
	off := make([]int32, k+1)
	for i, v := range nodes {
		d := int32(0)
		for _, w := range g.Neighbors(v) {
			if s.live.Seen(w) {
				d++
			}
		}
		off[i+1] = off[i] + d
	}
	// off[t] serves as row t's fill cursor, ending at row t+1's start;
	// shifting by one afterwards restores the row starts.
	adj := make([]int32, off[k])
	for i, v := range nodes {
		for _, w := range g.Neighbors(v) {
			if s.live.Seen(w) {
				t := s.idx[w]
				adj[off[t]] = int32(i)
				off[t]++
			}
		}
	}
	copy(off[1:], off[:k])
	off[0] = 0
	return &Graph{off: off, adj: adj, m: int(off[k]) / 2}
}
