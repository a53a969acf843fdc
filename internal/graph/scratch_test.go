package graph

import (
	"math/rand"
	"testing"
)

func randomTestGraph(r *rand.Rand, n, m int) *Graph {
	b := NewStreamBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Graph()
}

func TestBFSScratchMatchesBFS(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomTestGraph(r, 300, 500) // sparse: several components
	s := NewBFSScratch()
	for src := int32(0); src < 50; src++ {
		wantDist, wantOrder := g.BFS(src)
		order := s.BFS(g, src)
		if len(order) != len(wantOrder) {
			t.Fatalf("src %d: order length %d, want %d", src, len(order), len(wantOrder))
		}
		for i, v := range order {
			if v != wantOrder[i] {
				t.Fatalf("src %d: order[%d] = %d, want %d", src, i, v, wantOrder[i])
			}
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if s.Dist(v) != wantDist[v] {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, v, s.Dist(v), wantDist[v])
			}
		}
	}
}

func TestBFSScratchCountsMatchesBFSCounts(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	g := randomTestGraph(r, 200, 600)
	s := NewBFSScratch()
	for src := int32(0); src < 40; src++ {
		wantDist, wantSigma, wantOrder := g.BFSCounts(src)
		order := s.Counts(g, src)
		if len(order) != len(wantOrder) {
			t.Fatalf("src %d: order length %d, want %d", src, len(order), len(wantOrder))
		}
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if s.Dist(v) != wantDist[v] {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, v, s.Dist(v), wantDist[v])
			}
			if _, sigma := s.Rows(); wantDist[v] != Unreached && sigma[v] != wantSigma[v] {
				t.Fatalf("src %d: sigma[%d] = %v, want %v", src, v, sigma[v], wantSigma[v])
			}
		}
	}
}

func TestBFSScratchGrowsAcrossGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	s := NewBFSScratch()
	for _, n := range []int{10, 500, 50} {
		g := randomTestGraph(r, n, 2*n)
		wantDist, _ := g.BFS(0)
		s.BFS(g, 0)
		for v := int32(0); v < int32(n); v++ {
			if s.Dist(v) != wantDist[v] {
				t.Fatalf("n=%d: dist[%d] = %d, want %d", n, v, s.Dist(v), wantDist[v])
			}
		}
	}
}

func TestBFSScratchSteadyStateAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	g := randomTestGraph(r, 400, 1200)
	s := NewBFSScratch()
	s.BFS(g, 0) // warm the buffers
	allocs := testing.AllocsPerRun(20, func() {
		s.BFS(g, int32(r.Intn(g.NumNodes())))
	})
	if allocs != 0 {
		t.Fatalf("steady-state BFS allocates %v objects per run, want 0", allocs)
	}
}

// naiveInduced is an independent map-based reference for Induced, kept in the
// test so the production fast path is not compared against itself.
func naiveInduced(g *Graph, nodes []int32) *Graph {
	idx := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		idx[v] = int32(i)
	}
	b := NewStreamBuilder(len(nodes))
	for _, v := range nodes {
		for _, w := range g.Neighbors(v) {
			if j, ok := idx[w]; ok && idx[v] < j {
				b.AddEdge(idx[v], j)
			}
		}
	}
	return b.Graph()
}

func TestSubgraphScratchMatchesSubgraph(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomTestGraph(r, 250, 900)
	s := &SubgraphScratch{}
	for trial := 0; trial < 30; trial++ {
		k := 1 + r.Intn(g.NumNodes())
		perm := r.Perm(g.NumNodes())
		nodes := make([]int32, k)
		for i := range nodes {
			nodes[i] = int32(perm[i])
		}
		want := naiveInduced(g, nodes)
		got := s.Induced(g, nodes)
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("trial %d: got %d nodes/%d edges, want %d/%d", trial,
				got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for v := int32(0); v < int32(want.NumNodes()); v++ {
			wn, gn := want.Neighbors(v), got.Neighbors(v)
			if len(wn) != len(gn) {
				t.Fatalf("trial %d: node %d degree %d, want %d", trial, v, len(gn), len(wn))
			}
			for i := range wn {
				if wn[i] != gn[i] {
					t.Fatalf("trial %d: node %d neighbor %d = %d, want %d",
						trial, v, i, gn[i], wn[i])
				}
			}
		}
	}
}
