package topocmp

import (
	"fmt"
	"slices"
)

// mapBuilder is the map-backed edge builder that graph.StreamBuilder
// replaced: one map entry per distinct edge, CSR laid out at freeze. It
// survives only as the reference the scale smoke and BenchmarkScaleBuild
// measure the streamed build against, so its freeze allocates exactly what
// it allocated as graph.Builder.Graph: degree counts, offsets, adjacency
// and a fill cursor.
type mapBuilder struct {
	n     int
	edges map[uint64]struct{}
}

func newMapBuilder(n int) *mapBuilder {
	return &mapBuilder{n: n, edges: make(map[uint64]struct{})}
}

// AddEdge records {u,v}, dropping self-loops; repeats collapse in the map.
func (b *mapBuilder) AddEdge(u, v int32) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("mapBuilder: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges[uint64(u)<<32|uint64(uint32(v))] = struct{}{}
}

// mapCSR is the map builder's frozen product: the CSR arrays a
// graph.Graph holds, sorted neighbor slices included.
type mapCSR struct{ off, adj []int32 }

func (b *mapBuilder) csr() mapCSR {
	deg := make([]int32, b.n)
	for k := range b.edges {
		deg[k>>32]++
		deg[uint32(k)]++
	}
	off := make([]int32, b.n+1)
	for i := 0; i < b.n; i++ {
		off[i+1] = off[i] + deg[i]
	}
	adj := make([]int32, off[b.n])
	pos := make([]int32, b.n)
	copy(pos, off[:b.n])
	for k := range b.edges {
		u, v := int32(k>>32), int32(uint32(k))
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	for v := 0; v < b.n; v++ {
		slices.Sort(adj[off[v]:off[v+1]])
	}
	return mapCSR{off: off, adj: adj}
}

func (c mapCSR) edges() int   { return len(c.adj) / 2 }
func (c mapCSR) bytes() int64 { return int64(4*len(c.off) + 4*len(c.adj)) }

// fingerprint is graph.Graph.Fingerprint over the same arrays: FNV-1a over
// the node count, then every offset and adjacency entry, 8 bytes each.
func (c mapCSR) fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(len(c.off) - 1))
	for _, o := range c.off {
		mix(uint64(uint32(o)))
	}
	for _, a := range c.adj {
		mix(uint64(uint32(a)))
	}
	return h
}
