package metrics_test

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
)

// diameterExceeds reports whether the exact diameter of sub, a connected
// graph, exceeds limit, which holds iff some node's eccentricity does. A BFS from v, of
// eccentricity e, bounds every node u's eccentricity to [max(d, e−d), e+d]
// with d = dist(v, u) (the bounding method of Takes and Kosters); BFS runs
// from the open nodes, alternately the one of least lower bound and the one
// of greatest upper bound, until a bound settles the answer.
func diameterExceeds(sub *graph.Graph, limit int) bool {
	n := sub.NumNodes()
	lo, hi := make([]int, n), make([]int, n)
	open := make([]int32, n)
	for v := range open {
		hi[v], open[v] = math.MaxInt, int32(v)
	}
	s := graph.NewBFSScratch()
	for turn := 0; len(open) > 0; turn++ {
		v := open[0]
		for _, u := range open {
			if (turn%2 == 0 && lo[u] < lo[v]) || (turn%2 == 1 && hi[u] > hi[v]) {
				v = u
			}
		}
		order := s.BFS(sub, v)
		e := int(s.Dist(order[len(order)-1]))
		if e > limit {
			return true
		}
		kept := open[:0]
		for _, u := range open {
			d := int(s.Dist(u))
			lo[u], hi[u] = max(lo[u], d, e-d), min(hi[u], e+d)
			if lo[u] > limit {
				return true
			}
			if u != v && hi[u] > limit {
				kept = append(kept, u)
			}
		}
		open = kept
	}
	return false
}

// TestBrandesLongBallsMatchScalar checks the election on the kind of ball
// that once routed to the scalar accumulation: every distortion ball whose
// exact diameter exceeds 32 hops, on the 30x30 mesh from the -quick suite's
// curve centers, on Tiers at scale 1.0 from the -full suite's, and on the
// deterministic PLRG of Appendix D.1's connectivity panel at the -full
// scale of 0.45. Under the -full cap of 2,500 nodes no Tiers ball spans
// more than 32 hops, so its balls grow uncapped. On each such ball
// SubgraphDistortionKernels must equal the reference election's distortion
// bit for bit; the distortion is computed from the elected roots, so
// equality means both elections picked the same roots.
func TestBrandesLongBallsMatchScalar(t *testing.T) {
	quick, full := experiments.QuickConfig(1), experiments.FullConfig(1)
	tiersSet := full.Set
	tiersSet.Scale = 1.0
	curveCfg := func(suite core.SuiteOptions, off int64) ball.Config {
		return ball.Config{MaxSources: suite.Sources, MaxBallSize: suite.MaxBallSize,
			MinBallSize: 3, Rand: rand.New(rand.NewSource(suite.Seed + off))}
	}
	uncapped := full.Suite
	uncapped.MaxBallSize = 0
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  ball.Config
	}{
		{"Mesh", core.BuildNetwork("Mesh", quick.Set).Graph, curveCfg(quick.Suite, 1)},
		{"Tiers@1.0", core.BuildNetwork("Tiers", tiersSet).Graph, curveCfg(uncapped, 1)},
		// The fourth network of experiments.Runner.ConnectivityVariants,
		// with the center stream of its distortion curve.
		{"PLRG deterministic", plrg.MustGenerate(rand.New(rand.NewSource(full.Set.Seed+103)),
			plrg.Params{N: int(9000 * full.Set.Scale), Beta: 2.246, Connect: plrg.Deterministic}),
			curveCfg(full.Suite, 2)},
	} {
		long := 0
		ball.NewEngine(tc.g, 1).BallPointsKernels(tc.cfg, 0,
			func(sub *graph.Graph, h int, _ *rand.Rand, k *ball.Kernels) (float64, bool) {
				if !diameterExceeds(sub, 32) {
					return 0, false
				}
				long++
				got := metrics.SubgraphDistortionKernels(sub, 3, k)
				if want := metrics.SubgraphDistortionScalar(sub, 3); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s radius-%d ball of %d nodes: distortion %v, scalar election %v",
						tc.name, h, sub.NumNodes(), got, want)
				}
				return 0, false
			})
		if long == 0 {
			t.Errorf("%s: no ball has a diameter over 32", tc.name)
		}
		t.Logf("%s: %d balls with a diameter over 32", tc.name, long)
	}
}

// FuzzBrandesMatchesScalar checks the bit-parallel accumulation against the
// scalar reference on raw-byte graphs of up to 64 nodes, disconnected ones
// included, with 1 to 64 sources, repeats allowed. One scratch runs twice,
// on the larger graph and then on a smaller one, so anything the first run
// left behind would reach the second. Delta sums may differ from the
// reference's in the last ulps (see graph.BrandesScratch), so bc must match
// within 1e-9 relative error.
func FuzzBrandesMatchesScalar(f *testing.F) {
	f.Fuzz(func(t *testing.T, nRaw, smallRaw, w1, w2 uint8, data []byte) {
		n := 2 + int(nRaw)%63
		b := graph.NewBrandesScratch()
		for _, run := range []struct{ n, w int }{{n, int(w1)}, {1 + int(smallRaw)%(n-1), int(w2)}} {
			gb := graph.NewStreamBuilder(run.n)
			for i := 0; i+1 < len(data); i += 2 {
				gb.AddEdge(int32(data[i])%int32(run.n), int32(data[i+1])%int32(run.n))
			}
			g := gb.Graph()
			sources := make([]int32, 1+run.w%graph.BrandesWidth)
			for i := range sources {
				sources[i] = int32(i % run.n)
				if len(data) > 0 {
					sources[i] = int32(int(data[i%len(data)])+i) % int32(run.n)
				}
			}
			want := make([]float64, run.n)
			metrics.ScalarBetweenness(g, sources, graph.NewBFSScratch(), want)
			got := make([]float64, run.n)
			b.Accumulate(g, sources, got)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9*math.Max(1, math.Abs(want[v])) {
					t.Fatalf("%d nodes, %d sources: bc[%d] = %v, reference %v",
						run.n, len(sources), v, got[v], want[v])
				}
			}
		}
	})
}
