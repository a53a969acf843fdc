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

// Dist computes policy (valley-free shortest path) distances from src: the
// per-node distances of one path tree. Unreachable nodes get
// graph.Unreached.
func (a *Annotated) Dist(src int32) []int32 {
	t := a.PathsInto(nil, src)
	out := make([]int32, len(t.best))
	for v := range out {
		out[v] = t.Dist(int32(v))
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

// Ball is a policy-induced ball (Appendix E): the nodes whose policy path
// from the center is at most h hops, and the links lying on those
// policy-compliant shortest paths.
type Ball struct {
	Center int32
	Radius int
	Nodes  []int32
	Edges  []graph.Edge
}

// PolicyBall grows the policy-induced ball of radius h around src; see
// PathTree.Ball.
func (a *Annotated) PolicyBall(src int32, h int) Ball { return a.PathsInto(nil, src).Ball(h) }

// Subgraph converts a policy ball into a graph (node i = Nodes[i]).
func (b Ball) Subgraph() *graph.Graph {
	idx := make(map[int32]int32, len(b.Nodes))
	for i, v := range b.Nodes {
		idx[v] = int32(i)
	}
	// PathTree.Ball emits each edge once, so the edges stream as they are.
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
