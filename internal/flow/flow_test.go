package flow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// edgeDisjointPaths is the max flow from s to t on a freshly loaded
// network.
func edgeDisjointPaths(g *graph.Graph, s, t int32) int {
	var nw Network
	nw.Reset(g)
	return nw.MaxFlow(s, t)
}

func TestPathFlowIsOne(t *testing.T) {
	g := canonical.Linear(10)
	if f := edgeDisjointPaths(g, 0, 9); f != 1 {
		t.Fatalf("path flow = %d, want 1", f)
	}
}

func TestCycleFlowIsTwo(t *testing.T) {
	b := graph.NewStreamBuilder(6)
	for i := 0; i < 6; i++ {
		b.AddEdge(int32(i), int32((i+1)%6))
	}
	if f := edgeDisjointPaths(b.Graph(), 0, 3); f != 2 {
		t.Fatalf("cycle flow = %d, want 2", f)
	}
}

func TestCompleteFlow(t *testing.T) {
	g := canonical.Complete(7)
	// K7: 6 edge-disjoint paths between any pair (degree bound).
	if f := edgeDisjointPaths(g, 0, 6); f != 6 {
		t.Fatalf("K7 flow = %d, want 6", f)
	}
}

func TestMeshFlow(t *testing.T) {
	g := canonical.Mesh(5, 5)
	// Opposite corners of a grid have 2 edge-disjoint paths (corner degree).
	if f := edgeDisjointPaths(g, 0, 24); f != 2 {
		t.Fatalf("mesh corner flow = %d, want 2", f)
	}
	// Center to corner also bounded by corner degree 2.
	if f := edgeDisjointPaths(g, 12, 0); f != 2 {
		t.Fatalf("mesh center-corner flow = %d, want 2", f)
	}
}

func TestDisconnectedFlowZero(t *testing.T) {
	b := graph.NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if f := edgeDisjointPaths(b.Graph(), 0, 3); f != 0 {
		t.Fatalf("disconnected flow = %d, want 0", f)
	}
}

func TestSelfFlowZero(t *testing.T) {
	if f := edgeDisjointPaths(canonical.Complete(4), 2, 2); f != 0 {
		t.Fatalf("self flow = %d", f)
	}
}

func TestNetworkReuse(t *testing.T) {
	g := canonical.Complete(6)
	var nw Network
	nw.Reset(g)
	for i := 0; i < 3; i++ {
		if f := nw.MaxFlow(0, 5); f != 5 {
			t.Fatalf("iteration %d: flow = %d, want 5", i, f)
		}
	}
}

// Property: flow is bounded by min(deg(s), deg(t)) and is at least 1 when
// connected; and it is symmetric.
func TestFlowBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := graph.NewStreamBuilder(30)
		for i := 1; i < 30; i++ {
			b.AddEdge(int32(i), int32(r.Intn(i)))
		}
		for i := 0; i < 30; i++ {
			u, v := int32(r.Intn(30)), int32(r.Intn(30))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		var nw Network
		nw.Reset(g)
		s, tt := int32(0), int32(29)
		fl := nw.MaxFlow(s, tt)
		min := g.Degree(s)
		if d := g.Degree(tt); d < min {
			min = d
		}
		if fl < 1 || fl > min {
			return false
		}
		return nw.MaxFlow(tt, s) == fl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing any fl edge-disjoint-path bound: flow equals min cut —
// verify against a brute-force edge cut on tiny graphs.
func TestFlowEqualsMinCutProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 7
		b := graph.NewStreamBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(int32(i), int32(r.Intn(i)))
		}
		for i := 0; i < 4; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		fl := edgeDisjointPaths(g, 0, int32(n-1))
		// Brute force: try all edge subsets of size < fl; none may
		// disconnect 0 from n-1 (Menger).
		edges := g.Edges()
		m := len(edges)
		if m > 12 {
			return true // keep brute force tractable
		}
		for mask := 0; mask < 1<<m; mask++ {
			if popcount(mask) >= fl {
				continue
			}
			nb := graph.NewStreamBuilder(n)
			for i, e := range edges {
				if mask&(1<<i) == 0 {
					nb.AddEdge(e.U, e.V)
				}
			}
			dist, _ := nb.Graph().BFS(0)
			if dist[n-1] == graph.Unreached {
				return false // cut smaller than flow: contradiction
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
