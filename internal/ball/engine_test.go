package ball

import (
	"math/rand"
	"reflect"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

func engineTestGraph() *graph.Graph {
	r := rand.New(rand.NewSource(42))
	n := 400
	b := graph.NewStreamBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Graph()
}

func TestProfileMatchesBFS(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	for src := int32(0); src < 30; src++ {
		p := e.Profile(src)
		dist, order := g.BFS(src)
		if p.Center != src || len(p.Order) != len(order) {
			t.Fatalf("src %d: profile covers %d nodes, want %d", src, len(p.Order), len(order))
		}
		ecc := int(dist[order[len(order)-1]])
		if p.Eccentricity() != ecc {
			t.Fatalf("src %d: eccentricity %d, want %d", src, p.Eccentricity(), ecc)
		}
		for h := 0; h <= ecc+2; h++ {
			want := 0
			for _, v := range order {
				if int(dist[v]) <= h {
					want++
				}
			}
			if p.Size(h) != want {
				t.Fatalf("src %d: ball size at h=%d is %d, want %d", src, h, p.Size(h), want)
			}
		}
	}
}

func TestProfileCacheSharesOneBFS(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	p1 := e.Profile(5)
	p2 := e.Profile(5)
	if p1 != p2 {
		t.Fatal("same center computed twice: profile cache missed")
	}
	// Parallel Profiles over overlapping center sets must reuse entries.
	profs := e.Profiles([]int32{3, 5, 7})
	if profs[1] != p1 {
		t.Fatal("Profiles did not reuse the cached profile")
	}
}

func TestBallSubgraphMatchesSubgraph(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	p := e.Profile(0)
	for h := 1; h <= p.Eccentricity(); h++ {
		got := e.BallSubgraph(p, h)
		want := g.Subgraph(p.BallAt(h))
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("h=%d: got %d nodes/%d edges, want %d/%d", h,
				got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		if e.BallSubgraph(p, h) != got {
			t.Fatalf("h=%d: ball subgraph not cached", h)
		}
	}
}

// ballPointsAt runs one deterministic-but-RNG-consuming BallPoints pass at
// the given parallelism.
func ballPointsAt(g *graph.Graph, parallelism int) []stats.Point {
	e := NewEngine(g, parallelism)
	cfg := Config{MaxSources: 24, MaxBallSize: 300, MinBallSize: 2,
		Rand: rand.New(rand.NewSource(1))}
	return e.BallPoints(cfg, 77, func(sub *graph.Graph, rng *rand.Rand) (float64, bool) {
		// Consume the per-center RNG so scheduling bugs would show up.
		return float64(sub.NumEdges()) + float64(rng.Intn(3)), true
	})
}

func TestBallPointsParallelMatchesSequential(t *testing.T) {
	g := engineTestGraph()
	seq := ballPointsAt(g, 1)
	if len(seq) == 0 {
		t.Fatal("no points produced")
	}
	for _, workers := range []int{2, 4, 8} {
		par := ballPointsAt(g, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallelism %d: points differ from sequential", workers)
		}
	}
}

func TestVisitMatchesProfiles(t *testing.T) {
	// Visit (the legacy sequential walk) and the engine must agree on every
	// grown ball.
	g := engineTestGraph()
	e := NewEngine(g, 1)
	cfg := Config{MaxSources: 10, MaxBallSize: 250, Rand: rand.New(rand.NewSource(3))}
	type key struct {
		center int32
		radius int
	}
	sizes := map[key]int{}
	Visit(g, cfg, func(b Ball) {
		sizes[key{b.Center, b.Radius}] = len(b.Nodes)
	})
	if len(sizes) == 0 {
		t.Fatal("no balls visited")
	}
	for k, sz := range sizes {
		if got := e.Profile(k.center).Size(k.radius); got != sz {
			t.Fatalf("ball (%d, %d): Visit saw %d nodes, profile says %d",
				k.center, k.radius, sz, got)
		}
	}
}

// TestEngineInstrumentation: an instrumented engine reports balls grown,
// BFS visits and subgraph builds through the registry, counting cached
// reuse exactly once.
func TestEngineInstrumentation(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	p := e.Profile(5)
	e.Profile(5) // cached: no second BFS
	e.BallSubgraph(p, 1)
	e.BallSubgraph(p, 1) // cached: no second build

	snap := reg.Snapshot()
	if snap.Counters["ball.profiles"] != 1 {
		t.Errorf("profiles = %d, want 1", snap.Counters["ball.profiles"])
	}
	if snap.Counters["ball.bfs_visits"] != int64(len(p.Order)) {
		t.Errorf("bfs_visits = %d, want %d", snap.Counters["ball.bfs_visits"], len(p.Order))
	}
	if snap.Counters["ball.subgraphs"] != 1 {
		t.Errorf("subgraphs = %d, want 1", snap.Counters["ball.subgraphs"])
	}
	gets, allocs := snap.Counters["ball.scratch_gets"], snap.Counters["ball.scratch_allocs"]
	if gets != 2 || allocs < 1 || allocs > gets {
		t.Errorf("scratch gets=%d allocs=%d", gets, allocs)
	}

	// An uninstrumented engine takes the same calls as pure no-ops.
	plain := NewEngine(g, 1)
	plain.BallSubgraph(plain.Profile(5), 1)
}
