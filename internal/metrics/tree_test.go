package metrics_test

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/obs"
)

// pruferTree decodes a random Prüfer sequence into a labelled tree on n ≥ 2
// nodes.
func pruferTree(r *rand.Rand, n int) *graph.Graph {
	seq := make([]int32, n-2)
	deg := make([]int, n)
	for v := range deg {
		deg[v] = 1
	}
	for i := range seq {
		seq[i] = int32(r.Intn(n))
		deg[seq[i]]++
	}
	b := graph.NewBuilder(n)
	for _, v := range seq {
		for u := range deg {
			if deg[u] == 1 {
				b.AddEdge(int32(u), v)
				deg[u]--
				deg[v]--
				break
			}
		}
	}
	var last []int32
	for u := range deg {
		if deg[u] == 1 {
			last = append(last, int32(u))
		}
	}
	b.AddEdge(last[0], last[1])
	return b.Graph()
}

// checkTreeAnswer fails unless both forced election routes answer exactly
// 1.0 on tree g, as SubgraphDistortionKernels' early return does.
func checkTreeAnswer(t *testing.T, name string, g *graph.Graph, k *ball.Kernels) {
	t.Helper()
	if g.NumEdges() != g.NumNodes()-1 {
		t.Fatalf("%s: %d nodes, %d edges is not a tree", name, g.NumNodes(), g.NumEdges())
	}
	one := math.Float64bits(1)
	got := metrics.SubgraphDistortionKernels(g, 3, k)
	sc := metrics.SubgraphDistortionScalar(g, 3, k)
	bp := metrics.SubgraphDistortionBitParallel(g, 3, k)
	if math.Float64bits(got) != one || math.Float64bits(sc) != one || math.Float64bits(bp) != one {
		t.Fatalf("%s (%d nodes): kernels %v, scalar election %v, bit-parallel election %v; want exactly 1",
			name, g.NumNodes(), got, sc, bp)
	}
}

// TestDistortionTreeAnswer pins SubgraphDistortionKernels' tree answer
// against the full election, which the forced routes still run: on random
// Prüfer trees, paths, stars and every tree ball the quick-scale suite's
// distortion stage meets on Linear, Tree, PLRG and AS, both routes must
// answer 1.0 exactly.
func TestDistortionTreeAnswer(t *testing.T) {
	k := &ball.Kernels{BFS: graph.NewBFSScratch(), Brandes: graph.NewBrandesScratch()}
	r := rand.New(rand.NewSource(3))
	for n := 2; n <= 300; n += 1 + n/10 {
		checkTreeAnswer(t, "Prüfer tree", pruferTree(r, n), k)
		path, star := graph.NewBuilder(n), graph.NewBuilder(n)
		for v := int32(1); v < int32(n); v++ {
			path.AddEdge(v-1, v)
			star.AddEdge(0, v)
		}
		checkTreeAnswer(t, "path", path.Graph(), k)
		checkTreeAnswer(t, "star", star.Graph(), k)
	}

	cfg := experiments.QuickConfig(1)
	nets := []*core.Network{
		core.BuildNetwork("Linear", cfg.Set),
		core.BuildNetwork("Tree", cfg.Set),
		core.BuildNetwork("PLRG", cfg.Set),
		core.BuildMeasured(cfg.Set).AS,
	}
	for _, n := range nets {
		balls, trees := 0, 0
		ball.NewEngine(n.Graph, 1).BallPointsKernels(ball.Config{
			MaxSources:  cfg.Suite.Sources,
			MaxBallSize: cfg.Suite.MaxBallSize,
			MinBallSize: 3,
			Rand:        rand.New(rand.NewSource(cfg.Suite.Seed + 1)),
		}, 0, func(sub *graph.Graph, _ int, _ *rand.Rand, k *ball.Kernels) (float64, bool) {
			balls++
			if sub.NumEdges() == sub.NumNodes()-1 {
				trees++
				checkTreeAnswer(t, n.Name+" ball", sub, k)
			}
			return 0, false
		})
		if (n.Name == "Linear" || n.Name == "Tree") && trees != balls {
			t.Errorf("%s: %d of %d balls are trees, want all", n.Name, trees, balls)
		}
		t.Logf("%s: %d of %d distortion balls are trees", n.Name, trees, balls)
	}
}

// TestDistortionUnicyclicRunsElection checks that the tree answer needs
// m = n−1 exactly: a cycle with a pendant path (m = n) and every ball of
// it that holds the cycle still runs the election, and agrees with the
// forced scalar route bit for bit.
func TestDistortionUnicyclicRunsElection(t *testing.T) {
	b := graph.NewBuilder(16)
	for v := int32(0); v < 15; v++ {
		b.AddEdge(v, v+1)
	}
	b.AddEdge(0, 5) // a 6-cycle with a 10-node tail
	g := b.Graph()
	reg := obs.NewRegistry()
	e := ball.NewEngine(g, 1)
	e.Instrument(reg)
	elections := func() int64 {
		return reg.Counter("ball.brandes_batches").Value() + reg.Counter("ball.brandes_scalar").Value()
	}
	cyclic := 0
	e.BallPointsKernels(ball.Config{MaxSources: 16, MinBallSize: 3, Rand: rand.New(rand.NewSource(1))}, 0,
		func(sub *graph.Graph, _ int, _ *rand.Rand, k *ball.Kernels) (float64, bool) {
			before := elections()
			d := metrics.SubgraphDistortionKernels(sub, 3, k)
			ran := elections() > before
			if tree := sub.NumEdges() == sub.NumNodes()-1; ran == tree {
				t.Fatalf("%d nodes, %d edges: election ran %t", sub.NumNodes(), sub.NumEdges(), ran)
			}
			if sub.NumEdges() == sub.NumNodes() {
				cyclic++
				if sc := metrics.SubgraphDistortionScalar(sub, 3, k); math.Float64bits(d) != math.Float64bits(sc) {
					t.Fatalf("%d-node unicyclic ball: distortion %v, scalar election %v", sub.NumNodes(), d, sc)
				}
				if d <= 1 {
					t.Fatalf("%d-node unicyclic ball: distortion %v, want > 1", sub.NumNodes(), d)
				}
			}
			return 0, false
		})
	if cyclic == 0 {
		t.Fatal("no ball held the cycle")
	}
}
