package policy

import (
	"slices"
	"sort"

	"topocmp/internal/graph"
)

// PathTree holds one shortest policy path from a source to every reachable
// node, as a parent structure over the valley-free product space. BGP-style
// deterministic tie-breaking (lowest neighbor id, then lowest state) makes
// the selected paths stable across runs. Its BFS is the package's one
// traversal of the product space: the tree keeps the graph, the arcs'
// relationship bytes and the visit order, so policy balls (Ball) and path
// counts (CountsInto) are read from it without another traversal.
type PathTree struct {
	g      *graph.Graph
	rel    []Relationship // rel[i] is the relationship CSR arc i crosses
	src    int32
	dist   []int32 // product distances
	parent []int32 // product parent state, -1 at roots
	best   []int32 // best (minimal-distance, tie-break lowest) arrival state per node, -1 unreachable
	order  []int32 // product states in BFS visit order, nondecreasing distance
}

// PathsInto computes a policy path tree from src over the annotated graph,
// recycling t's product-space scratch (dist, parent, best, order); t == nil
// allocates a fresh tree. Sweeps that run hundreds of single-source trees
// over one graph (traceroute, BGP collection, policy expansion) pass the
// previous tree back in and allocate nothing after the first source. The
// filled tree is always returned; any previous contents of t are
// overwritten.
func (a *Annotated) PathsInto(t *PathTree, src int32) *PathTree {
	return buildPathTree(t, a.G, a.rel, src)
}

// PathsInto computes a router-level policy path tree from src, recycling
// t's scratch; see Annotated.PathsInto.
func (o *RouterOverlay) PathsInto(t *PathTree, src int32) *PathTree {
	return buildPathTree(t, o.RL, o.rel, src)
}

// buildPathTree fills t with the path tree from src over a graph whose arc
// i crosses relationship rel[i]. A recycled tree is reset through its
// previous BFS order, the only states that left their rest values
// (Unreached distance, no parent, no best state), so a sweep of trees
// costs what the trees reach rather than the product space.
func buildPathTree(t *PathTree, g *graph.Graph, rel []Relationship, src int32) *PathTree {
	n := g.NumNodes()
	if t == nil || cap(t.dist) < n*numStates {
		t = &PathTree{
			dist:   make([]int32, n*numStates),
			parent: make([]int32, n*numStates),
			best:   make([]int32, n),
		}
		for i := range t.dist {
			t.dist[i], t.parent[i] = graph.Unreached, -1
		}
		for i := range t.best {
			t.best[i] = -1
		}
	}
	// Reset at the previous lengths before reslicing: a tree last built
	// on a larger graph holds states beyond this one's range, which must
	// be at rest when a later build grows back.
	for _, st := range t.order {
		t.dist[st], t.parent[st] = graph.Unreached, -1
		t.best[st/numStates] = -1
	}
	t.g, t.rel, t.src = g, rel, src
	t.dist = t.dist[:n*numStates]
	t.parent = t.parent[:n*numStates]
	t.best = t.best[:n]
	start := src*numStates + stateUp
	t.dist[start], t.best[src] = 0, start
	order := append(t.order[:0], start)
	off, adj := g.CSR()
	for head := 0; head < len(order); head++ {
		cur := order[head]
		u, s := cur/numStates, int(cur%numStates)
		du := t.dist[cur]
		for i := off[u]; i < off[u+1]; i++ {
			ns := transition(s, rel[i])
			if ns < 0 {
				continue
			}
			next := adj[i]*numStates + int32(ns)
			if t.dist[next] == graph.Unreached {
				t.dist[next] = du + 1
				t.parent[next] = cur
				order = append(order, next)
				// States arrive in nondecreasing distance, so a node's
				// best state is its first, or a lower state at the same
				// distance.
				v := adj[i]
				if b := t.best[v]; b < 0 || (t.dist[b] == du+1 && next < b) {
					t.best[v] = next
				}
			}
		}
	}
	t.order = order
	return t
}

// Dist returns the policy distance to dst, or graph.Unreached.
func (t *PathTree) Dist(dst int32) int32 {
	if t.best[dst] < 0 {
		return graph.Unreached
	}
	return t.dist[t.best[dst]]
}

// CountsInto returns the tree's product distances and, in sigma's storage,
// the number of shortest valley-free paths from the source to every product
// state, both indexed node*NumStates+state (0 at unreached states). One
// pass over the BFS order adds each state's count to its successors one hop
// farther, arc by arc: the additions a counting BFS makes, in the same
// sequence, so the counts come out bit for bit as that BFS's. The
// distances are the tree's own row; do not modify them.
func (t *PathTree) CountsInto(sigma []float64) ([]int32, []float64) {
	if cap(sigma) < len(t.dist) {
		sigma = make([]float64, len(t.dist))
	} else {
		sigma = sigma[:len(t.dist)]
		clear(sigma)
	}
	sigma[t.order[0]] = 1
	off, adj := t.g.CSR()
	for _, cur := range t.order {
		u, s := cur/numStates, int(cur%numStates)
		next, c := t.dist[cur]+1, sigma[cur]
		for i := off[u]; i < off[u+1]; i++ {
			ns := transition(s, t.rel[i])
			if ns < 0 {
				continue
			}
			if st := adj[i]*numStates + int32(ns); t.dist[st] == next {
				sigma[st] += c
			}
		}
	}
	return t.dist, sigma
}

// Ball grows the policy-induced ball of radius h around the tree's source
// (Appendix E): member nodes have policy distance at most h, in ascending
// id order, and member edges are exactly the edges lying on some shortest
// policy path from the source to a member (including intermediate edges
// whose endpoints are reached sub-optimally on that path, as in the
// paper's Appendix E example), each once. It marks the target product
// states (optimal arrivals at members), then walks the shortest-path DAG
// backwards, in reverse BFS order so successors are final before their
// predecessors. Only the part of the order within distance h is read:
// farther states are neither targets nor on a path to one.
func (t *PathTree) Ball(h int) Ball {
	b := Ball{Center: t.src, Radius: h}
	within := t.order[:sort.Search(len(t.order), func(i int) bool { return int(t.dist[t.order[i]]) > h })]
	marked := make([]bool, len(t.dist))
	for _, st := range within {
		v := st / numStates
		if t.best[v] == st {
			b.Nodes = append(b.Nodes, v)
		}
		marked[st] = t.dist[st] == t.dist[t.best[v]]
	}
	slices.Sort(b.Nodes)
	seen := map[uint64]bool{}
	off, adj := t.g.CSR()
	for i := len(within) - 1; i >= 0; i-- {
		cur := within[i]
		u, s := cur/numStates, int(cur%numStates)
		du := t.dist[cur]
		for arc := off[u]; arc < off[u+1]; arc++ {
			ns := transition(s, t.rel[arc])
			if ns < 0 {
				continue
			}
			v := adj[arc]
			if next := v*numStates + int32(ns); t.dist[next] == du+1 && marked[next] {
				marked[cur] = true
				e := graph.Edge{U: min(u, v), V: max(u, v)}
				if k := key(e.U, e.V); !seen[k] {
					seen[k] = true
					b.Edges = append(b.Edges, e)
				}
			}
		}
	}
	return b
}

// Path returns the node sequence of the selected policy path from the
// source to dst (inclusive on both ends), or nil if unreachable.
func (t *PathTree) Path(dst int32) []int32 {
	return t.PathInto(nil, dst)
}

// PathInto is Path reusing buf's storage: sweeps that walk many
// destinations pass the previous return value back in and allocate only on
// growth. Returns nil if dst is unreachable.
func (t *PathTree) PathInto(buf []int32, dst int32) []int32 {
	st := t.best[dst]
	if st < 0 {
		return nil
	}
	rev := buf[:0]
	for st >= 0 {
		rev = append(rev, st/numStates)
		st = t.parent[st]
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NumProductStates returns the product-space size a VisitPathEdges or
// NewSuffix stamp must cover (pass it to Stamp.Begin once per tree).
func (t *PathTree) NumProductStates() int { return len(t.dist) }

// VisitPathEdges enumerates the node-level hops (u, v) of the selected path
// to dst, walking the product parent chain from the destination toward the
// source. With a stamp (Begin'd to NumProductStates once per tree), the
// walk stops at the first product state a previous destination already
// covered — selected paths form a tree in product space, so sweeping every
// destination costs one visit per tree state instead of one per path hop,
// which is what makes whole-graph coverage unions cheap. The emitted edge
// set is exactly the union of the Path slices' hops; only the order (and
// the suffix deduplication) differs. A nil stamp walks the full path.
func (t *PathTree) VisitPathEdges(stamp *graph.Stamp, dst int32, visit func(u, v int32)) {
	st := t.best[dst]
	if st < 0 {
		return
	}
	for {
		if stamp != nil && !stamp.Visit(st) {
			return
		}
		p := t.parent[st]
		if p < 0 {
			return
		}
		visit(p/numStates, st/numStates)
		st = p
	}
}

// NewSuffix returns the part of dst's selected path that stamp has not yet
// covered, as product states (node*NumStates+state) in forward order,
// appended to buf[:0], and marks them covered. from is the covered state
// the suffix hangs off, or -1 when the suffix starts at the source. The
// selected paths form a tree in product space, so the covered prefix is
// exactly the path an earlier destination already walked; an unreachable
// dst yields an empty suffix.
func (t *PathTree) NewSuffix(buf []int32, stamp *graph.Stamp, dst int32) (suffix []int32, from int32) {
	suffix, from = buf[:0], -1
	for st := t.best[dst]; st >= 0; st = t.parent[st] {
		if !stamp.Visit(st) {
			from = st
			break
		}
		suffix = append(suffix, st)
	}
	slices.Reverse(suffix)
	return suffix, from
}
