package metrics

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

func defaultCfg(sources int) ball.Config {
	return ball.Config{MaxSources: sources, Rand: rand.New(rand.NewSource(1))}
}

// newKernels returns a kernel bundle built outside an engine, enough for
// SubgraphDistortionKernels.
func newKernels() *ball.Kernels {
	return &ball.Kernels{Brandes: graph.NewBrandesScratch()}
}

// --- Expansion ---

func TestExpansionPath(t *testing.T) {
	g := canonical.Linear(10)
	s := ExpansionWith(ball.NewEngine(g, 1), ball.Config{})
	// E(0) = 1/10; E at eccentricity = 1.
	if math.Abs(s.Points[0].Y-0.1) > 1e-9 {
		t.Fatalf("E(0) = %v, want 0.1", s.Points[0].Y)
	}
	last := s.Points[len(s.Points)-1]
	if math.Abs(last.Y-1) > 1e-9 {
		t.Fatalf("E(max) = %v, want 1", last.Y)
	}
}

func TestExpansionMonotone(t *testing.T) {
	g := canonical.Tree(3, 5)
	s := ExpansionWith(ball.NewEngine(g, 1), ball.Config{})
	for i := 1; i < s.Len(); i++ {
		if s.Points[i].Y < s.Points[i-1].Y-1e-12 {
			t.Fatalf("expansion not monotone at %d", i)
		}
	}
}

func TestExpansionTreeFasterThanMesh(t *testing.T) {
	tree := canonical.Tree(3, 6)   // 1093 nodes
	mesh := canonical.Mesh(33, 33) // 1089 nodes
	st := ExpansionWith(ball.NewEngine(tree, 1), defaultCfg(50))
	sm := ExpansionWith(ball.NewEngine(mesh, 1), defaultCfg(50))
	// The forms differ — exponential vs quadratic — which shows at radius
	// ~10: the tree (diameter 12) has nearly saturated while the mesh
	// (diameter 64) has only reached ~2h^2/N of its nodes.
	if st.YAt(10) < 3*sm.YAt(10) {
		t.Fatalf("tree E(10)=%v not >> mesh E(10)=%v", st.YAt(10), sm.YAt(10))
	}
}

func TestExpansionEmptyGraph(t *testing.T) {
	if s := ExpansionWith(ball.NewEngine(canonical.Linear(0), 1), ball.Config{}); s.Len() != 0 {
		t.Fatal("empty graph should give empty series")
	}
}

// --- Resilience ---

func TestResilienceTreeLow(t *testing.T) {
	g := canonical.Tree(3, 6)
	s := ResilienceWith(ball.NewEngine(g, 1), defaultCfg(12), 1)
	// Tiny balls around internal nodes are stars, whose balanced cut is
	// necessarily ~n/2; and a complete k-ary tree needs ~log n cuts for a
	// balanced split. The tree's signature is therefore *flat, low*
	// resilience: bounded by ~log n everywhere, far below the mesh's
	// sqrt(n) and the random graph's kn.
	for _, p := range s.Points {
		if p.X >= 25 {
			bound := 2*math.Log2(p.X) + 2
			if p.Y > bound {
				t.Fatalf("tree resilience %v at size %v; want <= %v", p.Y, p.X, bound)
			}
		}
	}
}

func TestResilienceRandomGrows(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := canonical.Random(r, 1200, 0.004) // avg degree ~4.8
	s := ResilienceWith(ball.NewEngine(g, 1), defaultCfg(10), 1)
	if s.Len() < 3 {
		t.Fatalf("too few resilience points: %d", s.Len())
	}
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	if last.Y <= first.Y {
		t.Fatalf("random resilience should grow: %v -> %v", first.Y, last.Y)
	}
	// Roughly linear in n: R(n)/n should not collapse.
	if last.Y < last.X/20 {
		t.Fatalf("random resilience %v too small for ball size %v", last.Y, last.X)
	}
}

func TestResilienceOrdering(t *testing.T) {
	// At comparable ball sizes: tree << mesh << random.
	r := rand.New(rand.NewSource(3))
	tree := canonical.Tree(2, 9)
	mesh := canonical.Mesh(32, 32)
	random := canonical.Random(r, 1100, 0.004)
	st := ResilienceWith(ball.NewEngine(tree, 1), defaultCfg(8), 1)
	sm := ResilienceWith(ball.NewEngine(mesh, 1), defaultCfg(8), 1)
	sr := ResilienceWith(ball.NewEngine(random, 1), defaultCfg(8), 1)
	size := 400.0
	if !(st.YAt(size) < sm.YAt(size) && sm.YAt(size) < sr.YAt(size)) {
		t.Fatalf("ordering violated: tree=%v mesh=%v random=%v",
			st.YAt(size), sm.YAt(size), sr.YAt(size))
	}
}

// --- Distortion ---

func TestDistortionTreeIsOne(t *testing.T) {
	g := canonical.Tree(3, 5)
	s := DistortionWith(ball.NewEngine(g, 1), defaultCfg(10), 3)
	for _, p := range s.Points {
		if math.Abs(p.Y-1) > 1e-9 {
			t.Fatalf("tree distortion = %v at size %v, want 1", p.Y, p.X)
		}
	}
}

func TestDistortionCompleteIsTwoish(t *testing.T) {
	g := canonical.Complete(30)
	d := SubgraphDistortionKernels(g, 3, newKernels())
	// Star spanning tree: center edges distance 1 (29 edges), other pairs 2.
	if d < 1.5 || d > 2.05 {
		t.Fatalf("complete-graph distortion = %v, want ~1.93", d)
	}
}

func TestDistortionMeshGrows(t *testing.T) {
	mesh := canonical.Mesh(25, 25)
	s := DistortionWith(ball.NewEngine(mesh, 1), defaultCfg(8), 3)
	if s.Len() < 3 {
		t.Fatalf("too few points: %d", s.Len())
	}
	small, large := s.Points[0].Y, s.Points[s.Len()-1].Y
	if large <= small {
		t.Fatalf("mesh distortion should grow with ball size: %v -> %v", small, large)
	}
	if large < 2 {
		t.Fatalf("mesh distortion at large balls = %v, want > 2", large)
	}
}

func TestDistortionPLRGLowerThanMesh(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(4)), plrg.Params{N: 1500, Beta: 2.2})
	mesh := canonical.Mesh(30, 30)
	sg := DistortionWith(ball.NewEngine(g, 1), defaultCfg(8), 3)
	sm := DistortionWith(ball.NewEngine(mesh, 1), defaultCfg(8), 3)
	size := 500.0
	if sg.YAt(size) >= sm.YAt(size) {
		t.Fatalf("PLRG distortion %v should be below mesh %v at size %v",
			sg.YAt(size), sm.YAt(size), size)
	}
}

func TestSubgraphDistortionDegenerate(t *testing.T) {
	if d := SubgraphDistortionKernels(canonical.Linear(1), 3, newKernels()); d != 0 {
		t.Fatalf("single node distortion = %v", d)
	}
	if d := SubgraphDistortionKernels(canonical.Linear(2), 3, newKernels()); math.Abs(d-1) > 1e-9 {
		t.Fatalf("K2 distortion = %v, want 1", d)
	}
}

// --- Eigenvalues ---

func TestEigenvalueSpectrumStar(t *testing.T) {
	// Star with 16 leaves: positive eigenvalues are just 4 (= sqrt(16)).
	b := graph.NewStreamBuilder(17)
	for i := int32(1); i <= 16; i++ {
		b.AddEdge(0, i)
	}
	s := EigenvalueSpectrum(b.Graph(), 5)
	if s.Len() < 1 || math.Abs(s.Points[0].Y-4) > 1e-8 {
		t.Fatalf("star spectrum = %+v, want top 4", s.Points)
	}
}

func TestEigenvalueSpectrumLargeUsesLanczos(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(5)), plrg.Params{N: 1200, Beta: 2.2})
	s := EigenvalueSpectrum(g, 20)
	if s.Len() < 10 {
		t.Fatalf("spectrum too short: %d", s.Len())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Points[i].Y > s.Points[i-1].Y+1e-9 {
			t.Fatalf("spectrum not descending at rank %d", i)
		}
	}
	// Top adjacency eigenvalue >= sqrt(max degree).
	if s.Points[0].Y < math.Sqrt(float64(g.MaxDegree()))-1e-6 {
		t.Fatalf("top eigenvalue %v below sqrt(maxdeg) %v",
			s.Points[0].Y, math.Sqrt(float64(g.MaxDegree())))
	}
}

// --- Eccentricity ---

func TestEccentricityDistribution(t *testing.T) {
	g := canonical.Mesh(12, 12)
	s := EccentricityDistributionWith(ball.NewEngine(g, 1), 0, 0.1, rand.New(rand.NewSource(11)))
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Y
		if p.X < 0.3 || p.X > 2.2 {
			t.Fatalf("normalized eccentricity %v out of plausible range", p.X)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("histogram mass = %v, want 1", sum)
	}
}

func TestEccentricityTreeOneSided(t *testing.T) {
	// Paper footnote 23: the tree's diameter distribution is one-sided —
	// most nodes (the leaves) sit at maximum eccentricity.
	g := canonical.Tree(3, 6)
	s := EccentricityDistributionWith(ball.NewEngine(g, 1), 200, 0.1, rand.New(rand.NewSource(11)))
	// Mass above the mean should dominate.
	above := 0.0
	for _, p := range s.Points {
		if p.X >= 1.0 {
			above += p.Y
		}
	}
	if above < 0.5 {
		t.Fatalf("tree eccentricity mass above mean = %v, want > 0.5", above)
	}
}

// --- Vertex cover ---

func TestVertexCoverStar(t *testing.T) {
	b := graph.NewStreamBuilder(10)
	for i := int32(1); i < 10; i++ {
		b.AddEdge(0, i)
	}
	cover := VertexCover(b.Graph())
	if len(cover) != 1 || cover[0] != 0 {
		t.Fatalf("star cover = %v, want [0]", cover)
	}
}

func TestVertexCoverValid(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := canonical.Random(r, 300, 0.02)
	cover := VertexCover(g)
	in := make(map[int32]bool, len(cover))
	for _, v := range cover {
		in[v] = true
	}
	for _, e := range g.Edges() {
		if !in[e.U] && !in[e.V] {
			t.Fatalf("edge %v uncovered", e)
		}
	}
	// 2-approximation bound vs trivial lower bound E/maxdeg.
	lower := float64(g.NumEdges()) / float64(g.MaxDegree())
	if float64(len(cover)) > 2*float64(g.NumNodes()) || float64(len(cover)) < lower {
		t.Fatalf("cover size %d implausible", len(cover))
	}
}

// --- Biconnectivity ---

func TestBiconnectedComponentsKnown(t *testing.T) {
	cases := []struct {
		build func() *graph.Graph
		want  int
		name  string
	}{
		{func() *graph.Graph { return canonical.Linear(5) }, 4, "path"},
		{func() *graph.Graph { return canonical.Complete(6) }, 1, "complete"},
		{func() *graph.Graph {
			// Two triangles sharing a vertex.
			b := graph.NewStreamBuilder(5)
			b.AddEdge(0, 1)
			b.AddEdge(1, 2)
			b.AddEdge(2, 0)
			b.AddEdge(2, 3)
			b.AddEdge(3, 4)
			b.AddEdge(4, 2)
			return b.Graph()
		}, 2, "two triangles"},
		{func() *graph.Graph { return canonical.Tree(2, 4) }, 30, "binary tree"},
		{func() *graph.Graph { return canonical.Mesh(4, 4) }, 1, "mesh"},
	}
	for _, c := range cases {
		if got := BiconnectedComponents(c.build()); got != c.want {
			t.Fatalf("%s: components = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBiconnectivityCurveTreeEqualsEdges(t *testing.T) {
	g := canonical.Tree(3, 5)
	s := BiconnectivityCurveWith(ball.NewEngine(g, 1), defaultCfg(10))
	// In a tree every edge is its own biconnected component: count = n-1.
	for _, p := range s.Points {
		if math.Abs(p.Y-(p.X-1)) > p.X*0.2+2 {
			t.Fatalf("tree biconnectivity %v at size %v, want ~size-1", p.Y, p.X)
		}
	}
}

// --- Tolerance ---

func TestAttackToleranceHeavyTailPeaks(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(7)), plrg.Params{N: 3000, Beta: 2.2})
	fracs := []float64{0, 0.01, 0.03, 0.05, 0.10}
	att := AttackTolerance(g, fracs, 30)
	err := ErrorTolerance(g, fracs, 30, rand.New(rand.NewSource(8)))
	// Removing hubs must hurt more than random removal (the scale-free
	// attack-vulnerability result of Albert et al.).
	if att.Points[2].Y <= err.Points[2].Y {
		t.Fatalf("attack APL %v should exceed error APL %v",
			att.Points[2].Y, err.Points[2].Y)
	}
	if att.Points[0].Y != err.Points[0].Y {
		t.Fatalf("f=0 baselines differ: %v vs %v", att.Points[0].Y, err.Points[0].Y)
	}
}

// TestToleranceRemovesEveryNode: at fraction 1 the removal curves delete
// every node, so the largest component is empty and the curve ends at
// (1, 0), what AveragePathLength returns below two nodes.
func TestToleranceRemovesEveryNode(t *testing.T) {
	g := canonical.Mesh(6, 6)
	fracs := []float64{0, 1}
	for _, s := range []stats.Series{
		AttackTolerance(g, fracs, 8),
		ErrorTolerance(g, fracs, 8, rand.New(rand.NewSource(8))),
	} {
		if s.Len() != 2 || s.Points[0].Y <= 0 {
			t.Fatalf("%s: points %v, want a positive path length at f=0", s.Name, s.Points)
		}
		if last := s.Points[1]; last.X != 1 || last.Y != 0 {
			t.Fatalf("%s: curve ends at (%v, %v), want (1, 0)", s.Name, last.X, last.Y)
		}
	}
}

func TestAveragePathLength(t *testing.T) {
	g := canonical.Complete(20)
	if apl, _ := AveragePathLength(g, 0); math.Abs(apl-1) > 1e-9 {
		t.Fatalf("complete APL = %v, want 1", apl)
	}
	p := canonical.Linear(3) // distances 1,1,2 -> mean 4/3
	if apl, _ := AveragePathLength(p, 0); math.Abs(apl-4.0/3) > 1e-9 {
		t.Fatalf("path APL = %v, want 4/3", apl)
	}
	if apl, _ := AveragePathLength(canonical.Linear(1), 0); apl != 0 {
		t.Fatalf("singleton APL = %v", apl)
	}
}

// --- Clustering ---

func TestClusteringCoefficientKnown(t *testing.T) {
	if c := ClusteringCoefficient(canonical.Complete(5)); math.Abs(c-1) > 1e-9 {
		t.Fatalf("K5 clustering = %v, want 1", c)
	}
	if c := ClusteringCoefficient(canonical.Tree(3, 4)); c != 0 {
		t.Fatalf("tree clustering = %v, want 0", c)
	}
	// Triangle with a pendant edge: nodes of the triangle have C=1 except
	// the one with the pendant (degree 3, 1 of 3 pairs linked).
	b := graph.NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 3)
	want := (1.0/3 + 1 + 1) / 3
	if c := ClusteringCoefficient(b.Graph()); math.Abs(c-want) > 1e-9 {
		t.Fatalf("clustering = %v, want %v", c, want)
	}
}

func TestClusteringCurveMeshZero(t *testing.T) {
	// Grid has no triangles.
	s := ClusteringCurveWith(ball.NewEngine(canonical.Mesh(12, 12), 1), defaultCfg(10))
	for _, p := range s.Points {
		if p.Y != 0 {
			t.Fatalf("mesh clustering %v at size %v, want 0", p.Y, p.X)
		}
	}
}

func BenchmarkExpansionPLRG(b *testing.B) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(9)), plrg.Params{N: 5000, Beta: 2.2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExpansionWith(ball.NewEngine(g, 1), defaultCfg(32))
	}
}
