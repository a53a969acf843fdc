package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// inducedSorted is the historical Induced, kept as the reference: each row
// is gathered in the source graph's neighbour order and then sorted by
// local id.
func inducedSorted(g *Graph, nodes []int32) *Graph {
	idx := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		idx[v] = int32(i)
	}
	k := len(nodes)
	off := make([]int32, k+1)
	var adj []int32
	for i, v := range nodes {
		for _, w := range g.Neighbors(v) {
			if j, ok := idx[w]; ok {
				adj = append(adj, j)
			}
		}
		slices.Sort(adj[off[i]:])
		off[i+1] = int32(len(adj))
	}
	return &Graph{off: off, adj: adj, m: len(adj) / 2}
}

// inducedNodes draws a duplicate-free node list of g in one of three
// shapes: a BFS order from a random root (what the ball engine passes), a
// random subset in random order, or every node in random order.
func inducedNodes(r *rand.Rand, g *Graph, shape uint8) []int32 {
	n := g.NumNodes()
	switch shape % 3 {
	case 0:
		_, order := g.BFS(int32(r.Intn(n)))
		return order[:1+r.Intn(len(order))]
	case 1:
		perm := r.Perm(n)
		nodes := make([]int32, r.Intn(n+1))
		for i := range nodes {
			nodes[i] = int32(perm[i])
		}
		return nodes
	default:
		nodes := make([]int32, n)
		for i, v := range r.Perm(n) {
			nodes[i] = int32(v)
		}
		return nodes
	}
}

func checkInducedMatchesSorted(t *testing.T, s *SubgraphScratch, g *Graph, nodes []int32) {
	t.Helper()
	got, want := s.Induced(g, nodes), inducedSorted(g, nodes)
	if !slices.Equal(got.off, want.off) || !slices.Equal(got.adj, want.adj) || got.m != want.m {
		t.Fatalf("nodes %v: Induced off %v adj %v m %d; sorted reference off %v adj %v m %d",
			nodes, got.off, got.adj, got.m, want.off, want.adj, want.m)
	}
}

// FuzzInducedMatchesSorted compares Induced with the per-row-sorted
// reference on random simple graphs of up to 64 nodes and random
// duplicate-free node lists, BFS orders included. One scratch serves
// three lists per input, so stale stamps and index entries are exercised.
func FuzzInducedMatchesSorted(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(40), uint8(0))
	f.Add(int64(2), uint8(63), uint8(10), uint8(1))
	f.Add(int64(3), uint8(5), uint8(255), uint8(2))
	f.Add(int64(4), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 1+int(nRaw)%64, float64(density)/255)
		s := NewSubgraphScratch()
		for i := uint8(0); i < 3; i++ {
			checkInducedMatchesSorted(t, s, g, inducedNodes(r, g, shape+i))
		}
	})
}
