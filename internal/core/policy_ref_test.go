package core

import (
	"math/rand"
	"reflect"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/partition"
	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

// policyCum, policyBallCurves and policyExpansion are the sequential
// policy-ball driver the suite's policy engine replaced, kept as the
// reference TestPolicyCurvesMatchReference checks it against.

// policyCum fills cum with the policy ball sizes around a finished path
// tree's source: cum[h] = |{v : policy distance <= h}|, up to the source's
// policy eccentricity. One product BFS per center (PathsInto) yields every
// radius's size.
func policyCum(pt *policy.PathTree, numNodes int32, cum []int32) []int32 {
	cum = cum[:0]
	for v := int32(0); v < numNodes; v++ {
		d := pt.Dist(v)
		if d == graph.Unreached {
			continue
		}
		for int(d) >= len(cum) {
			cum = append(cum, 0)
		}
		cum[d]++
	}
	for h := 1; h < len(cum); h++ {
		cum[h] += cum[h-1]
	}
	return cum
}

// policyBallCurves computes resilience and distortion over policy-induced
// balls, the AS(Policy)/RL(Policy) curves of Figure 2(e,f). Policy balls
// contain only the links on policy-compliant shortest paths, which is what
// lowers the measured resilience ("the resilience of the RL and AS graphs
// decreases... although its qualitative behavior remains unchanged").
// Like the engine's curves, each center evaluates one ball per size bucket
// (ball.BucketRadii), chosen from the sizes of one path tree, and every
// ball is read from that tree: one product BFS per center. Center i cuts
// its balls with an RNG seeded Seed+100+i, as the engine's resilience
// curves do, so a ball's cut does not depend on the balls cut before it.
func policyBallCurves(n *Network, opts SuiteOptions) (stats.Series, stats.Series) {
	g := n.Graph
	cfg := ball.Config{
		MaxSources: opts.Sources,
		Rand:       rand.New(rand.NewSource(opts.Seed + 1)),
	}
	centers := ball.Centers(g, &cfg)
	paths := n.policyRouting()
	// One kernel bundle serves the whole sequential sweep: the partition
	// workspace for the cuts, the Brandes strips for the distortion
	// election. Workspace-backed kernels are bit-identical to fresh ones.
	k := &ball.Kernels{Part: partition.NewWorkspace(), Brandes: graph.NewBrandesScratch()}
	var pt *policy.PathTree
	var cum []int32
	var resRaw, distRaw []stats.Point
	for i, src := range centers {
		pt = paths(pt, src)
		cum = policyCum(pt, int32(g.NumNodes()), cum)
		rng := rand.New(rand.NewSource(opts.Seed + 100 + int64(i)))
		for _, h := range ball.BucketRadii(cum, 3, opts.MaxBallSize) {
			sub := pt.Ball(h).Subgraph()
			cut := partition.CutSizeWith(k.Part, sub, rng)
			resRaw = append(resRaw, stats.Point{X: float64(sub.NumNodes()), Y: float64(cut)})
			if d := metrics.SubgraphDistortionKernels(sub, 3, k); d > 0 {
				distRaw = append(distRaw, stats.Point{X: float64(sub.NumNodes()), Y: d})
			}
		}
	}
	res := stats.Bucketize(resRaw, stats.BucketRatio)
	res.Name = "resilience(policy)"
	dist := stats.Bucketize(distRaw, stats.BucketRatio)
	dist.Name = "distortion(policy)"
	return res, dist
}

// policyExpansion computes E(h) over policy-induced balls (the AS(Policy)
// curves of Figure 2(d)).
func policyExpansion(n *Network, cfg ball.Config) stats.Series {
	g := n.Graph
	total := float64(g.NumNodes())
	centers := ball.Centers(g, &cfg)
	paths := n.policyRouting()
	// Per-center cumulative reach profiles, saturated to the global
	// maximum eccentricity afterwards. One product-space tree serves every
	// center: PathsInto recycles the dist/parent/best arrays, and the
	// tree's per-node Dist is the same min-over-states the standalone Dist
	// sweep computes.
	var profiles [][]int32
	var pt *policy.PathTree
	maxH := 0
	for _, src := range centers {
		pt = paths(pt, src)
		cum := policyCum(pt, int32(g.NumNodes()), nil)
		profiles = append(profiles, cum)
		maxH = max(maxH, len(cum)-1)
	}
	s := stats.Series{Name: "expansion(policy)"}
	for h := 0; h <= maxH; h++ {
		sum := 0.0
		for _, cum := range profiles {
			sum += float64(cum[min(h, len(cum)-1)])
		}
		s.Add(float64(h), sum/float64(len(profiles))/total)
	}
	return s
}

// TestPolicyCurvesMatchReference: the suite's policy curves, grown on the
// policy engine, equal the sequential reference's bit for bit, point for
// point, on the AS graph (annotated routing) and the RL graph (router
// overlay) at seeds 1-3, with the quick preset's suite options and the
// serving benchmark's (6 centers, 500-node balls), at widths 1 and 3. The
// engine adds standard errors to the policy expansion; its points are
// the reference's.
func TestPolicyCurvesMatchReference(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if raceEnabled {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		ms := BuildMeasured(PaperSetOptions{Seed: seed, Scale: 0.12})
		for _, opts := range []SuiteOptions{
			{Sources: 12, MaxBallSize: 1500, EigenRank: 20, Seed: seed, SkipHierarchy: true},
			{Sources: 6, MaxBallSize: 500, EigenRank: 10, Seed: seed, SkipHierarchy: true},
		} {
			for _, n := range []*Network{ms.AS, ms.RL} {
				ref := opts
				ref.defaults()
				wantRes, wantDist := policyBallCurves(n, ref)
				wantExp := policyExpansion(n, ball.Config{
					MaxSources: 4 * ref.Sources,
					Rand:       rand.New(rand.NewSource(ref.Seed)),
				})
				if wantRes.Len() == 0 || wantDist.Len() == 0 || wantExp.Len() == 0 {
					t.Fatalf("seed %d %s: the reference drew an empty curve", seed, n.Name)
				}
				for _, p := range []int{1, 3} {
					opts.Parallelism = p
					res := RunSuite(n, opts)
					for _, c := range []struct {
						name      string
						got, want stats.Series
					}{
						{"resilience", res.PolicyResilience, wantRes},
						{"distortion", res.PolicyDistortion, wantDist},
					} {
						if !reflect.DeepEqual(c.got, c.want) {
							t.Errorf("seed %d %s sources %d P=%d: policy %s %v, reference %v",
								seed, n.Name, opts.Sources, p, c.name, c.got, c.want)
						}
					}
					if got := res.PolicyExpansion; got.Name != wantExp.Name || !reflect.DeepEqual(got.Points, wantExp.Points) ||
						len(got.StdErr) != len(got.Points) {
						t.Errorf("seed %d %s sources %d P=%d: policy expansion %v, reference %v",
							seed, n.Name, opts.Sources, p, got, wantExp)
					}
				}
			}
		}
	}
}
