// Package policy models BGP policy routing as the paper does (§3.2.1,
// Appendix E): AS graphs are annotated with provider–customer, peer–peer
// and sibling–sibling relationships; policy paths are the shortest
// valley-free paths (no customer→provider or peer→peer traversal after
// going "down", at most one peer link); and policy-induced balls contain
// the nodes within policy distance h plus the links on policy-compliant
// shortest paths.
//
// The package also implements Gao's relationship-inference algorithm
// (Globecom 2000), which the paper uses to annotate the measured AS graph,
// operating on AS paths from (simulated) BGP tables.
package policy

import (
	"fmt"
	"slices"

	"topocmp/internal/graph"
)

// Relationship classifies one directed view of an AS adjacency.
type Relationship int8

const (
	// RelNone marks an absent annotation.
	RelNone Relationship = iota
	// RelCustomer: the neighbor is my customer (I am its provider).
	RelCustomer
	// RelProvider: the neighbor is my provider (I am its customer).
	RelProvider
	// RelPeer: settlement-free peering.
	RelPeer
	// RelSibling: same organization; traffic flows freely.
	RelSibling
)

// String implements fmt.Stringer.
func (r Relationship) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelProvider:
		return "provider"
	case RelPeer:
		return "peer"
	case RelSibling:
		return "sibling"
	default:
		return "none"
	}
}

// Annotated is an AS-level graph whose edges carry relationships.
type Annotated struct {
	G *graph.Graph
	// rel[i] is the relationship of the neighbor on CSR arc i (adj[i]) as
	// seen from the arc's owner: one byte per arc, read directly by the
	// traversals that walk u's arcs.
	rel []Relationship
}

func key(u, v int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

// NewAnnotated wraps a graph with an empty annotation set.
func NewAnnotated(g *graph.Graph) *Annotated {
	return &Annotated{G: g, rel: make([]Relationship, 2*g.NumEdges())}
}

// arc returns the CSR index of arc u→v, or -1 when {u,v} is not an edge.
func (a *Annotated) arc(u, v int32) int {
	off, adj := a.G.CSR()
	lo, hi := int(off[u]), int(off[u+1])
	if i, ok := slices.BinarySearch(adj[lo:hi], v); ok {
		return lo + i
	}
	return -1
}

// set annotates both arcs of edge {u,v}; annotating a non-edge is a bug in
// the caller and panics.
func (a *Annotated) set(u, v int32, uv, vu Relationship) {
	i, j := a.arc(u, v), a.arc(v, u)
	if i < 0 || j < 0 {
		panic(fmt.Sprintf("policy: annotating non-edge (%d,%d)", u, v))
	}
	a.rel[i], a.rel[j] = uv, vu
}

// SetProviderCustomer marks provider → customer: provider sells transit to
// customer.
func (a *Annotated) SetProviderCustomer(provider, customer int32) {
	a.set(provider, customer, RelCustomer, RelProvider)
}

// SetPeer marks a peer–peer adjacency.
func (a *Annotated) SetPeer(u, v int32) { a.set(u, v, RelPeer, RelPeer) }

// SetSibling marks a sibling–sibling adjacency.
func (a *Annotated) SetSibling(u, v int32) { a.set(u, v, RelSibling, RelSibling) }

// Rel returns the relationship of v as seen from u: a binary search of u's
// sorted adjacency, RelNone if {u,v} is not an edge or not annotated.
func (a *Annotated) Rel(u, v int32) Relationship {
	if i := a.arc(u, v); i >= 0 {
		return a.rel[i]
	}
	return RelNone
}

// Validate checks that every edge of the graph is annotated consistently in
// both directions.
func (a *Annotated) Validate() error {
	for _, e := range a.G.Edges() {
		ruv, rvu := a.Rel(e.U, e.V), a.Rel(e.V, e.U)
		if ruv == RelNone || rvu == RelNone {
			return fmt.Errorf("policy: edge (%d,%d) not annotated", e.U, e.V)
		}
		ok := (ruv == RelCustomer && rvu == RelProvider) ||
			(ruv == RelProvider && rvu == RelCustomer) ||
			(ruv == RelPeer && rvu == RelPeer) ||
			(ruv == RelSibling && rvu == RelSibling)
		if !ok {
			return fmt.Errorf("policy: edge (%d,%d) annotated %v/%v", e.U, e.V, ruv, rvu)
		}
	}
	return nil
}

// Valley-free traversal states.
const (
	stateUp   = 0 // only customer→provider (or sibling) hops so far
	statePeer = 1 // exactly one peer hop taken
	stateDown = 2 // a provider→customer hop taken
	numStates = 3
)

// transition returns the next state for traversing from u to v given the
// current state, or -1 if the hop violates valley-freedom. rel is the
// relationship of v as seen from u.
func transition(state int, rel Relationship) int {
	switch rel {
	case RelProvider: // u → its provider: going up
		if state == stateUp {
			return stateUp
		}
		return -1
	case RelPeer:
		if state == stateUp {
			return statePeer
		}
		return -1
	case RelCustomer: // u → its customer: going down
		return stateDown
	case RelSibling:
		return state
	default:
		return -1
	}
}

// Dist computes policy (valley-free shortest path) distances from src via
// BFS over the (node × state) product graph. Unreachable nodes get
// graph.Unreached.
func (a *Annotated) Dist(src int32) []int32 { return productDist(a.G, a.rel, src) }

// productDist is Dist over a graph whose arc i crosses relationship rel[i]:
// each node's least distance over its product states.
func productDist(g *graph.Graph, rel []Relationship, src int32) []int32 {
	pd, _ := productBFS(g, rel, src)
	n := g.NumNodes()
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		best := graph.Unreached
		for s := 0; s < numStates; s++ {
			if d := pd[v*numStates+s]; d < best {
				best = d
			}
		}
		out[v] = best
	}
	return out
}

// NumStates is the size of the valley-free state machine; product-space
// indices are node*NumStates+state.
const NumStates = numStates

// Transition exposes the valley-free state machine for callers (like link
// value computation) that traverse the product graph themselves: it returns
// the next state for hop u→v from the given state, or -1 if forbidden.
func (a *Annotated) Transition(u, v int32, state int) int {
	return transition(state, a.Rel(u, v))
}

// ProductStart returns the product-space start state of a policy traversal
// from src — (src, up), the state ProductCountsInto seeds.
func ProductStart(src int32) int32 { return src*numStates + stateUp }

// ProductCSR materializes the valley-free product graph as a directed CSR
// over NumNodes×NumStates product states (indices node*NumStates+state):
// state (u,s) has one arc to (v, transition(s, rel(u,v))) for every
// neighbor v whose hop is valley-free from s. Built once, it lets batched
// kernels (graph.MSBFSScratch.RunSigmaCSR) traverse the product space
// without re-deriving the per-arc transitions on every traversal. A BFS
// over this CSR from ProductStart(src) yields exactly ProductCountsInto's
// distances and path counts.
func (a *Annotated) ProductCSR() (off, adj []int32) {
	n := a.G.NumNodes()
	goff, gadj := a.G.CSR()
	pn := n * numStates
	off = make([]int32, pn+1)
	for u := int32(0); u < int32(n); u++ {
		for i := goff[u]; i < goff[u+1]; i++ {
			for s := 0; s < numStates; s++ {
				if transition(s, a.rel[i]) >= 0 {
					off[int(u)*numStates+s+1]++
				}
			}
		}
	}
	for i := 0; i < pn; i++ {
		off[i+1] += off[i]
	}
	adj = make([]int32, off[pn])
	cur := make([]int32, pn)
	copy(cur, off[:pn])
	for u := int32(0); u < int32(n); u++ {
		for i := goff[u]; i < goff[u+1]; i++ {
			for s := 0; s < numStates; s++ {
				if ns := transition(s, a.rel[i]); ns >= 0 {
					st := int(u)*numStates + s
					adj[cur[st]] = gadj[i]*numStates + int32(ns)
					cur[st]++
				}
			}
		}
	}
	return off, adj
}

// ProductCounts computes, over the (node × state) product space, the policy
// BFS distances, the number of distinct shortest product paths sigma, and
// the BFS visit order. Indices are node*NumStates+state.
func (a *Annotated) ProductCounts(src int32) (dist []int32, sigma []float64, order []int32) {
	return a.ProductCountsInto(nil, nil, nil, src)
}

// ProductCountsInto is ProductCounts into caller-owned buffers, for sweeps
// that run one product traversal per source: dist and sigma are reset
// through the previous call's order (every touched state appears there), so
// a reused buffer behaves exactly like a fresh one without the per-source
// allocation. Pass nil slices (or slices from a previous call on a
// same-sized graph) and keep all three returned slices together for the
// next call.
func (a *Annotated) ProductCountsInto(dist []int32, sigma []float64,
	order []int32, src int32) ([]int32, []float64, []int32) {

	n := a.G.NumNodes()
	sz := n * int(numStates)
	if cap(dist) < sz || cap(sigma) < sz {
		dist = make([]int32, sz)
		sigma = make([]float64, sz)
		for i := range dist {
			dist[i] = graph.Unreached
		}
	} else {
		// Reset at the incoming length before reslicing: a previous traversal
		// on a larger graph may have touched states beyond sz, and they must
		// read Unreached/0 if a later call grows back.
		for _, st := range order {
			dist[st] = graph.Unreached
			sigma[st] = 0
		}
		dist = dist[:sz]
		sigma = sigma[:sz]
	}
	order = order[:0]
	start := src*numStates + stateUp
	dist[start] = 0
	sigma[start] = 1
	order = append(order, start)
	goff, gadj := a.G.CSR()
	for head := 0; head < len(order); head++ {
		cur := order[head]
		u, s := cur/numStates, int(cur%numStates)
		du := dist[cur]
		for i := goff[u]; i < goff[u+1]; i++ {
			ns := transition(s, a.rel[i])
			if ns < 0 {
				continue
			}
			nxt := gadj[i]*numStates + int32(ns)
			if dist[nxt] == graph.Unreached {
				dist[nxt] = du + 1
				order = append(order, nxt)
			}
			if dist[nxt] == du+1 {
				sigma[nxt] += sigma[cur]
			}
		}
	}
	return dist, sigma, order
}

// productBFS returns distances over the product state space of a graph
// whose arc i crosses relationship rel[i], indexed node*numStates+state,
// plus the BFS visit order of product states.
func productBFS(g *graph.Graph, rel []Relationship, src int32) ([]int32, []int32) {
	n := g.NumNodes()
	dist := make([]int32, n*numStates)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	order := make([]int32, 0, n)
	start := src*numStates + stateUp
	dist[start] = 0
	order = append(order, start)
	off, adj := g.CSR()
	for head := 0; head < len(order); head++ {
		cur := order[head]
		u, s := cur/numStates, int(cur%numStates)
		du := dist[cur]
		for i := off[u]; i < off[u+1]; i++ {
			ns := transition(s, rel[i])
			if ns < 0 {
				continue
			}
			nxt := adj[i]*numStates + int32(ns)
			if dist[nxt] == graph.Unreached {
				dist[nxt] = du + 1
				order = append(order, nxt)
			}
		}
	}
	return dist, order
}

// Ball is a policy-induced ball (Appendix E): the nodes whose policy path
// from the center is at most h hops, and the links lying on those
// policy-compliant shortest paths.
type Ball struct {
	Center int32
	Radius int
	Nodes  []int32
	Edges  []graph.Edge
}

// PolicyBall grows the policy-induced ball of radius h around src: member
// nodes have policy distance at most h, and member edges are exactly the
// edges lying on some shortest policy path from src to a member (including
// intermediate edges whose endpoints are reached sub-optimally on that
// path, as in the paper's Appendix E example).
func (a *Annotated) PolicyBall(src int32, h int) Ball { return productBall(a.G, a.rel, src, h) }

// productBall grows a policy ball over a graph whose arc i crosses
// relationship rel[i]: it marks target product states (optimal arrivals at
// members), then walks the shortest-path DAG backwards (decreasing
// distance) collecting every edge on a shortest path to a target.
func productBall(g *graph.Graph, rel []Relationship, src int32, h int) Ball {
	pd, order := productBFS(g, rel, src)
	n := g.NumNodes()
	minDist := func(v int32) int32 {
		best := graph.Unreached
		for s := int32(0); s < numStates; s++ {
			if d := pd[v*numStates+s]; d < best {
				best = d
			}
		}
		return best
	}
	b := Ball{Center: src, Radius: h}
	for v := int32(0); v < int32(n); v++ {
		if int(minDist(v)) <= h {
			b.Nodes = append(b.Nodes, v)
		}
	}
	marked := make([]bool, n*numStates)
	for _, v := range b.Nodes {
		md := minDist(v)
		for s := int32(0); s < numStates; s++ {
			if pd[v*numStates+s] == md {
				marked[v*numStates+s] = true
			}
		}
	}
	// order holds product states in nondecreasing distance; sweep it in
	// reverse so successors are finalized before predecessors.
	seen := map[uint64]bool{}
	off, adj := g.CSR()
	for i := len(order) - 1; i >= 0; i-- {
		cur := order[i]
		u, s := cur/numStates, int(cur%numStates)
		du := pd[cur]
		for arc := off[u]; arc < off[u+1]; arc++ {
			ns := transition(s, rel[arc])
			if ns < 0 {
				continue
			}
			v := adj[arc]
			nxt := v*numStates + int32(ns)
			if pd[nxt] == du+1 && marked[nxt] {
				marked[cur] = true
				k := key(minInt32(u, v), maxInt32(u, v))
				if !seen[k] {
					seen[k] = true
					b.Edges = append(b.Edges, graph.Edge{U: minInt32(u, v), V: maxInt32(u, v)})
				}
			}
		}
	}
	return b
}

func minInt32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func maxInt32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// Subgraph converts a policy ball into a graph (node i = Nodes[i]).
func (b Ball) Subgraph() *graph.Graph {
	idx := make(map[int32]int32, len(b.Nodes))
	for i, v := range b.Nodes {
		idx[v] = int32(i)
	}
	// productBall emits each edge once, so the edges stream as they are.
	gb := graph.NewStreamBuilder(len(b.Nodes))
	for _, e := range b.Edges {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			gb.AddEdge(iu, iv)
		}
	}
	return gb.Graph()
}

// PathInflation returns the mean ratio of policy distance to plain shortest
// path distance over reachable pairs from sampled sources, the quantity
// studied in the paper's path-inflation reference [42].
func (a *Annotated) PathInflation(sources []int32) float64 {
	totalRatio, count := 0.0, 0
	for _, src := range sources {
		sd, _ := a.G.BFS(src)
		pd := a.Dist(src)
		for v := range sd {
			if int32(v) == src || sd[v] == graph.Unreached || pd[v] == graph.Unreached {
				continue
			}
			totalRatio += float64(pd[v]) / float64(sd[v])
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return totalRatio / float64(count)
}
