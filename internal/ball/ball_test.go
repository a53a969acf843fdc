package ball

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// Ball, Visit and Subgraph are the sequential ball walk the engine
// replaced, kept as the reference its profiles are checked against.

// Ball is one grown ball: the center, hop radius, and member nodes (ids in
// the parent graph, in BFS order from the center).
type Ball struct {
	Center int32
	Radius int
	Nodes  []int32
}

// Visit grows balls of every radius around each sampled center and invokes
// fn once per (center, radius) with the ball's member prefix. The slice
// passed to fn is only valid during the call. Growth around a center stops
// once the ball covers the center's whole component or exceeds
// MaxBallSize.
func Visit(g *graph.Graph, cfg Config, fn func(b Ball)) {
	cfg.defaults()
	s := graph.NewBFSScratch()
	for _, src := range Centers(g, &cfg) {
		order := s.BFS(g, src)
		// order is sorted by distance already (BFS property).
		maxR := int(s.Dist(order[len(order)-1]))
		idx := 0
		for h := 1; h <= maxR; h++ {
			for idx < len(order) && int(s.Dist(order[idx])) <= h {
				idx++
			}
			if cfg.MaxBallSize > 0 && idx > cfg.MaxBallSize {
				break
			}
			if idx < cfg.MinBallSize {
				continue
			}
			fn(Ball{Center: src, Radius: h, Nodes: order[:idx]})
		}
	}
}

// Subgraph extracts the induced subgraph of a ball.
func Subgraph(g *graph.Graph, b Ball) *graph.Graph {
	return g.Subgraph(b.Nodes)
}

// scalarProfile is the full-profile route the engine's Profiles and ball
// subgraphs replaced, kept as their reference: one BFS of the center's
// whole component. order holds the component in BFS order and cum[h] the
// ball size at radius h, so order[:cum[h]] is the ball of radius h.
func scalarProfile(g *graph.Graph, center int32) (order, cum []int32) {
	s := graph.NewBFSScratch()
	order = slices.Clone(s.BFS(g, center))
	ecc := int(s.Dist(order[len(order)-1]))
	cum = make([]int32, ecc+1)
	for _, v := range order {
		cum[s.Dist(v)]++
	}
	for h := 1; h <= ecc; h++ {
		cum[h] += cum[h-1]
	}
	return order, cum
}

// sameCSR reports whether a and b hold the same nodes with the same
// neighbor rows.
func sameCSR(a, b *graph.Graph) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for v := int32(0); v < int32(a.NumNodes()); v++ {
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) {
			return false
		}
	}
	return true
}

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

// centersPerm is the Centers sampling Centers replaced: the first k entries
// of cfg.Rand.Perm(n), sorted.
func centersPerm(n, k int, r *rand.Rand) []int32 {
	out := make([]int32, k)
	for i, p := range r.Perm(n)[:k] {
		out[i] = int32(p)
	}
	slices.Sort(out)
	return out
}

// TestCentersMatchPerm: over random node counts, sample sizes and seeds,
// Centers draws the centers of the Perm-based sampling and leaves the RNG
// where it does, so the next draw matches too.
func TestCentersMatchPerm(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(300)
		k := 1 + r.Intn(n-1) // Centers returns every node at k >= n
		seed := r.Int63()
		cfg := Config{MaxSources: k, Rand: rand.New(rand.NewSource(seed))}
		got := Centers(graph.NewStreamBuilder(n).Graph(), &cfg)
		ref := rand.New(rand.NewSource(seed))
		if want := centersPerm(n, k, ref); !slices.Equal(got, want) {
			t.Fatalf("n %d k %d seed %d: centers %v, want %v", n, k, seed, got, want)
		}
		if a, b := cfg.Rand.Int63(), ref.Int63(); a != b {
			t.Fatalf("n %d k %d seed %d: next draw %d, want %d", n, k, seed, a, b)
		}
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
