package metrics_test

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
)

// TestBrandesGoldenScalarVsBitParallel pins the betweenness routes: on ball
// subgraphs of every paper network family, the distortion estimate must be
// byte-identical whether the top-roots ranking ran through the scalar
// per-source accumulation or the bit-parallel Brandes kernel. The
// distortion value is computed from the selected roots, so equality here
// means the two rankings picked identical root sets on every subgraph.
func TestBrandesGoldenScalarVsBitParallel(t *testing.T) {
	opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := core.BuildMeasured(opts)
	nets := []*core.Network{ms.AS, ms.RL}
	for _, name := range []string{"PLRG", "TS", "Mesh", "Tree", "Random"} {
		nets = append(nets, core.BuildNetwork(name, opts))
	}
	k := &ball.Kernels{BFS: graph.NewBFSScratch(), Brandes: graph.NewBrandesScratch()}
	for _, n := range nets {
		g := n.Graph
		e := ball.NewEngine(g, 1)
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 4; i++ {
			c := int32(r.Intn(g.NumNodes()))
			p := e.Profile(c)
			for _, h := range []int{2, 3} {
				sub := e.BallSubgraph(p, h)
				if sub.NumNodes() < 3 {
					continue
				}
				sc := metrics.SubgraphDistortionScalar(sub, 8, k)
				bp := metrics.SubgraphDistortionBitParallel(sub, 8, k)
				if math.Float64bits(sc) != math.Float64bits(bp) {
					t.Errorf("%s center %d h=%d: scalar distortion %v, bit-parallel %v",
						n.Name, c, h, sc, bp)
				}
			}
		}
	}
}
