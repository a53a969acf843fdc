package graph

import (
	"fmt"
	"slices"
)

// EdgeAdder is the minimal sink a generator streams edges into. Both
// Builder (map-backed, answers HasEdge mid-build) and StreamBuilder
// (append-only, dedups at freeze) implement it, so generation code that
// never queries membership can run on either.
type EdgeAdder interface {
	AddEdge(u, v int32)
}

var (
	_ EdgeAdder = (*Builder)(nil)
	_ EdgeAdder = (*StreamBuilder)(nil)
)

// StreamBuilder accumulates edges as packed uint64 keys in an append-only
// slice and normalizes — sort, in-place dedup, two-pass CSR fill — only at
// freeze. It holds 8 bytes per added edge (duplicates included) against the
// map Builder's ~50 bytes per distinct edge plus hash churn, which is what
// makes million-node generation fit in memory. The price is the missing
// HasEdge: a loop that must avoid repeats keeps a local seen-set over the
// pairs it can collide with (BA, BT and BRITE per round, internetsim's AS
// peering). Two production callers remain on Builder: PLRG's
// uniform-reconnection variant and waxman.GenerateModel.
//
// Graph freezes to exactly the same CSR as Builder.Graph over the same edge
// multiset: sorted neighbor slices, self-loops and duplicates dropped.
type StreamBuilder struct {
	n    int
	keys []uint64
}

// NewStreamBuilder returns a streamed builder for a graph with n nodes.
func NewStreamBuilder(n int) *StreamBuilder {
	return &StreamBuilder{n: n}
}

// Reserve pre-sizes the key buffer for the given number of AddEdge calls so
// generators that know their edge budget (clone matching knows the stub
// count, Mesh knows its grid) build with a single allocation and no append
// doubling transients.
func (b *StreamBuilder) Reserve(edges int) {
	if edges > cap(b.keys)-len(b.keys) {
		grown := make([]uint64, len(b.keys), len(b.keys)+edges)
		copy(grown, b.keys)
		b.keys = grown
	}
}

// EnsureNodes raises the node count to at least n. Pipelines that mint node
// ids while streaming (the traceroute sweep, BGP graph extraction) call it
// as ids appear; ids already added stay valid.
func (b *StreamBuilder) EnsureNodes(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddEdge records the undirected edge {u,v}. Self-loops are ignored.
// It panics if either endpoint is out of range.
func (b *StreamBuilder) AddEdge(u, v int32) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.keys = append(b.keys, edgeKey(u, v))
}

// NumNodes returns the current node count.
func (b *StreamBuilder) NumNodes() int { return b.n }

// PendingEdges returns the number of AddEdge calls buffered so far,
// duplicates included (distinct edges are only known at freeze).
func (b *StreamBuilder) PendingEdges() int { return len(b.keys) }

// Graph freezes the builder into an immutable Graph. The key buffer is
// sorted and dedup'd in place, then filled into CSR form in two streaming
// passes that emit every neighbor slice already sorted — no per-node sort:
//
//	pass 1 writes each key (u,v), u<v, into v's slice; for a fixed v the
//	sorted keys visit u in increasing order, so the lower-than-owner
//	neighbors land sorted. Pass 2 writes (u,v) into u's slice; for a fixed
//	u its keys are contiguous with v increasing, so the greater-than-owner
//	neighbors land sorted after the (all smaller) pass-1 entries.
//
// The offset array doubles as the fill cursor and is shifted back
// afterwards, so freeze allocates only off and adj beyond the key buffer.
// The builder remains usable afterwards: its keys are simply the dedup'd
// edge set, and further AddEdge calls append to it.
func (b *StreamBuilder) Graph() *Graph {
	slices.Sort(b.keys)
	b.keys = slices.Compact(b.keys)
	keys := b.keys
	m := len(keys)

	// Degree counts accumulate directly into off[v+1], then prefix-sum.
	off := make([]int32, b.n+1)
	for _, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		off[u+1]++
		off[v+1]++
	}
	for i := 0; i < b.n; i++ {
		off[i+1] += off[i]
	}

	adj := make([]int32, off[b.n])
	// off[v] now serves as v's write cursor; after both passes it has
	// advanced by deg(v), i.e. to the original off[v+1].
	for _, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		adj[off[v]] = u
		off[v]++
	}
	for _, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		adj[off[u]] = v
		off[u]++
	}
	// Shift the cursors back into offsets: off[v] holds end(v) == start(v+1).
	copy(off[1:], off[:b.n])
	off[0] = 0
	return &Graph{off: off, adj: adj, m: m}
}

// Fingerprint returns a 64-bit FNV-1a hash over the graph's node count and
// CSR arrays. Two graphs with equal fingerprints are byte-identical in
// adjacency with overwhelming probability; the generator determinism tests
// and the streamed-vs-map golden tests compare these instead of full edge
// lists, so million-node graphs hash in one pass without materializing
// anything.
func (g *Graph) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	mix(uint64(g.NumNodes()))
	for _, o := range g.off {
		mix(uint64(uint32(o)))
	}
	for _, a := range g.adj {
		mix(uint64(uint32(a)))
	}
	return h
}
