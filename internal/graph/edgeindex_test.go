package graph

import (
	"sort"
	"testing"
)

// TestEdgeIndexMatchesEdges pins the index to Edges(): ids follow (U, V)
// order, both orientations resolve, non-edges return -1, and Edge inverts.
func TestEdgeIndexMatchesEdges(t *testing.T) {
	g := msbfsTestGraph(43, 200, 600)
	ix := NewEdgeIndex(g)
	edges := g.Edges()
	if ix.NumEdges() != len(edges) {
		t.Fatalf("NumEdges = %d, want %d", ix.NumEdges(), len(edges))
	}
	for id, e := range edges {
		if got := ix.ID(e.U, e.V); got != int32(id) {
			t.Fatalf("ID(%d,%d) = %d, want %d", e.U, e.V, got, id)
		}
		if got := ix.ID(e.V, e.U); got != int32(id) {
			t.Fatalf("ID(%d,%d) = %d, want %d", e.V, e.U, got, id)
		}
		if back := ix.Edge(int32(id)); back != e {
			t.Fatalf("Edge(%d) = %v, want %v", id, back, e)
		}
	}
	seen := map[Edge]bool{}
	for _, e := range edges {
		seen[e] = true
	}
	n := int32(g.NumNodes())
	for u := int32(0); u < n; u += 7 {
		for v := int32(0); v < n; v += 5 {
			if u == v || seen[Edge{U: min32(u, v), V: max32(u, v)}] {
				continue
			}
			if got := ix.ID(u, v); got != -1 {
				t.Fatalf("ID(%d,%d) = %d for a non-edge, want -1", u, v, got)
			}
		}
	}
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a < b {
		return b
	}
	return a
}

// Edge returns the (U, V) endpoints of the edge with the given id — the
// inverse of ID, one binary search over the per-node prefix sums.
func (ix *EdgeIndex) Edge(id int32) Edge {
	u := sort.Search(len(ix.base)-1, func(i int) bool { return ix.base[i+1] > id })
	pos := ix.upStart[u] + (id - ix.base[u])
	return Edge{U: int32(u), V: ix.g.adj[pos]}
}
