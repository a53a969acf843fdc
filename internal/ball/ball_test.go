package ball

import (
	"math/rand"
	"testing"

	"topocmp/internal/gen/canonical"
)

func TestVisitPathBallSizes(t *testing.T) {
	g := canonical.Linear(11)
	sizes := map[int]int{} // radius -> size for center 5
	Visit(g, Config{}, func(b Ball) {
		if b.Center == 5 {
			sizes[b.Radius] = len(b.Nodes)
		}
	})
	for h, want := range map[int]int{1: 3, 2: 5, 5: 11} {
		if sizes[h] != want {
			t.Fatalf("radius %d size = %d, want %d", h, sizes[h], want)
		}
	}
}

func TestVisitRespectsMaxBallSize(t *testing.T) {
	g := canonical.Tree(3, 5)
	Visit(g, Config{MaxBallSize: 40}, func(b Ball) {
		if len(b.Nodes) > 40 {
			t.Fatalf("ball size %d exceeds cap", len(b.Nodes))
		}
	})
}

func TestVisitRespectsMinBallSize(t *testing.T) {
	g := canonical.Mesh(6, 6)
	Visit(g, Config{MinBallSize: 5}, func(b Ball) {
		if len(b.Nodes) < 5 {
			t.Fatalf("ball size %d below floor", len(b.Nodes))
		}
	})
}

func TestCentersSampling(t *testing.T) {
	g := canonical.Mesh(10, 10)
	cfg := Config{MaxSources: 7, Rand: rand.New(rand.NewSource(1))}
	cs := Centers(g, &cfg)
	if len(cs) != 7 {
		t.Fatalf("centers = %d, want 7", len(cs))
	}
	seen := map[int32]bool{}
	for _, c := range cs {
		if seen[c] {
			t.Fatal("duplicate center")
		}
		seen[c] = true
	}
	cfgAll := Config{}
	if got := len(Centers(g, &cfgAll)); got != 100 {
		t.Fatalf("all centers = %d, want 100", got)
	}
}

func TestBallNodesAreWithinRadius(t *testing.T) {
	g := canonical.Mesh(8, 8)
	Visit(g, Config{MaxSources: 5}, func(b Ball) {
		dist, _ := g.BFS(b.Center)
		for _, v := range b.Nodes {
			if int(dist[v]) > b.Radius {
				t.Fatalf("node %d at distance %d in radius-%d ball", v, dist[v], b.Radius)
			}
		}
		// Completeness: every node within radius is present.
		count := 0
		for v := int32(0); v < int32(g.NumNodes()); v++ {
			if int(dist[v]) <= b.Radius {
				count++
			}
		}
		if count != len(b.Nodes) {
			t.Fatalf("ball has %d nodes, want %d", len(b.Nodes), count)
		}
	})
}

func TestSubgraphMatchesBall(t *testing.T) {
	g := canonical.Tree(2, 5)
	var checked bool
	Visit(g, Config{MaxSources: 3}, func(b Ball) {
		sub := Subgraph(g, b)
		if sub.NumNodes() != len(b.Nodes) {
			t.Fatalf("subgraph nodes = %d, want %d", sub.NumNodes(), len(b.Nodes))
		}
		if !sub.IsConnected() {
			t.Fatal("ball subgraph must be connected")
		}
		checked = true
	})
	if !checked {
		t.Fatal("no balls visited")
	}
}
