package policy

import (
	"slices"

	"topocmp/internal/graph"
)

// PathTree holds one shortest policy path from a source to every reachable
// node, as a parent structure over the valley-free product space. BGP-style
// deterministic tie-breaking (lowest neighbor id, then lowest state) makes
// the selected paths stable across runs.
type PathTree struct {
	src    int32
	dist   []int32 // product distances
	parent []int32 // product parent state, -1 at roots
	best   []int32 // best (minimal-distance, tie-break lowest) arrival state per node, -1 unreachable
	queue  []int32 // BFS frontier, recycled by PathsInto
}

// PathsInto computes a policy path tree from src over the annotated graph,
// recycling t's product-space scratch (dist, parent, best, queue); t == nil
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
// i crosses relationship rel[i].
func buildPathTree(t *PathTree, g *graph.Graph, rel []Relationship, src int32) *PathTree {
	n := g.NumNodes()
	if t == nil || cap(t.dist) < n*numStates {
		t = &PathTree{
			dist:   make([]int32, n*numStates),
			parent: make([]int32, n*numStates),
			best:   make([]int32, n),
		}
	}
	t.src = src
	t.dist = t.dist[:n*numStates]
	t.parent = t.parent[:n*numStates]
	t.best = t.best[:n]
	for i := range t.dist {
		t.dist[i] = graph.Unreached
		t.parent[i] = -1
	}
	for i := range t.best {
		t.best[i] = -1
	}
	start := src*numStates + stateUp
	t.dist[start] = 0
	queue := append(t.queue[:0], start)
	off, adj := g.CSR()
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
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
				queue = append(queue, next)
			}
		}
	}
	t.queue = queue
	for v := int32(0); v < int32(n); v++ {
		bestD := graph.Unreached
		for s := int32(0); s < numStates; s++ {
			st := v*numStates + s
			if t.dist[st] < bestD {
				bestD = t.dist[st]
				t.best[v] = st
			}
		}
	}
	return t
}

// Dist returns the policy distance to dst, or graph.Unreached.
func (t *PathTree) Dist(dst int32) int32 {
	if t.best[dst] < 0 {
		return graph.Unreached
	}
	return t.dist[t.best[dst]]
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
