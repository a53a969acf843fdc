package hierarchy_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
	"topocmp/internal/hierarchy"
)

// goldenNets builds the paper families the link-value golden tests sweep:
// the two measured graphs (RL reduced to its core, as the suite computes
// link values), the generated and canonical families, plus a small lattice,
// whose many equal-cost paths give every target a wide ancestor DAG.
func goldenNets(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := core.BuildMeasured(opts)
	nets := map[string]*graph.Graph{
		"AS": ms.AS.Graph,
	}
	if c, _ := ms.RL.Graph.Core(); c.NumNodes() >= 3 {
		nets["RLcore"] = c
	}
	for _, name := range []string{"PLRG", "TS", "Mesh", "Tree", "Random"} {
		nets[name] = core.BuildNetwork(name, opts).Graph
	}
	nets["SmallMesh"] = canonical.Mesh(12, 12)
	return nets
}

// sampled is the golden tests' option set: a sampled pair universe with a
// fixed seed and the given worker count.
func sampled(budget, parallel int) hierarchy.Options {
	return hierarchy.Options{
		MaxSources:  budget,
		Rand:        rand.New(rand.NewSource(7)),
		Parallelism: parallel,
	}
}

// TestLinkValueGoldenParallelMatchesSequential byte-compares LinkValues at
// four workers against one, across the paper families × sampled source
// budgets. The worker-ordered streams fix every float accumulation order,
// so the comparison is exact equality, not a tolerance.
func TestLinkValueGoldenParallelMatchesSequential(t *testing.T) {
	for name, g := range goldenNets(t) {
		budgets := []int{48, 192}
		if g.NumNodes() <= 700 {
			budgets = append(budgets, 0) // full enumeration, small nets only
		}
		for _, budget := range budgets {
			want := hierarchy.LinkValues(g, sampled(budget, 1))
			got := hierarchy.LinkValues(g, sampled(budget, 4))
			if !reflect.DeepEqual(got.Values, want.Values) {
				t.Errorf("%s budget=%d: link values at P=4 differ from P=1", name, budget)
			}
		}
	}
}

// TestHalfCoversMatchOrderedRoute checks the sweeps over unordered pairs
// against the ordered sweeps they replaced, kept in ordered_test.go: plain
// routing on every quick-scale family (RL on its core, as the suite
// computes link values), and policy routing on the quick-scale AS graph at
// seeds 1-5 with the suite's 384 sources and seed+400 sampling. Each
// edge's cover holds the same nodes, and its value is within 4 ulp. The
// reverse copies' fractions, computed from the other endpoint's rows, are
// the only difference between the routes. LinkValues and PolicyLinkValues
// must return the half routes' values bit for bit.
func TestHalfCoversMatchOrderedRoute(t *testing.T) {
	opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := core.BuildMeasured(opts)
	nets := map[string]*graph.Graph{"AS": ms.AS.Graph}
	if c, _ := ms.RL.Graph.Core(); c.NumNodes() >= 3 {
		nets["RLcore"] = c
	}
	for _, name := range append(append([]string{}, core.GeneratedNetworkNames...), core.CanonicalNetworkNames...) {
		nets[name] = core.BuildNetwork(name, opts).Graph
	}
	for name, g := range nets {
		half, halfCovers := hierarchy.HalfCovers(g, sampled(128, 1))
		ordered, orderedCovers := hierarchy.OrderedCovers(g, sampled(128, 1))
		sameCovers(t, name, g, half, halfCovers, ordered, orderedCovers)
		if got := hierarchy.LinkValues(g, sampled(128, 1)); !reflect.DeepEqual(got.Values, half) {
			t.Errorf("%s: LinkValues differs from the half route's covers", name)
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		a := core.BuildMeasured(core.PaperSetOptions{Seed: seed, Scale: 0.12}).AS.Policy
		suite := func() hierarchy.Options {
			return hierarchy.Options{MaxSources: 384, Rand: rand.New(rand.NewSource(seed + 400)), Parallelism: 1}
		}
		name := fmt.Sprintf("AS(Policy) seed %d", seed)
		half, halfCovers := hierarchy.PolicyHalfCovers(a, suite())
		ordered, orderedCovers := hierarchy.PolicyOrderedCovers(a, suite())
		sameCovers(t, name, a.G, half, halfCovers, ordered, orderedCovers)
		if got := hierarchy.PolicyLinkValues(a, suite()); !reflect.DeepEqual(got.Values, half) {
			t.Errorf("%s: PolicyLinkValues differs from the half route's covers", name)
		}
	}
}

// sameCovers fails unless every edge keeps its cover across the two routes
// and its value moves by at most 4 ulp, and logs how many values moved.
func sameCovers(t *testing.T, name string, g *graph.Graph,
	half []float64, halfCovers [][]int32, ordered []float64, orderedCovers [][]int32) {
	t.Helper()
	const maxULP = 4
	moved := 0
	for e := range half {
		if !slices.Equal(halfCovers[e], orderedCovers[e]) {
			t.Fatalf("%s edge %v: half cover %v, ordered cover %v",
				name, g.Edges()[e], halfCovers[e], orderedCovers[e])
		}
		d := int64(math.Float64bits(half[e])) - int64(math.Float64bits(ordered[e]))
		if d < -maxULP || d > maxULP {
			t.Fatalf("%s edge %v: half value %v, ordered %v (%d ulp)",
				name, g.Edges()[e], half[e], ordered[e], d)
		}
		if d != 0 {
			moved++
		}
	}
	t.Logf("%s: %d of %d values moved", name, moved, len(half))
}

// TestPolicyLinkValueGoldenParallelMatchesSequential is the policy-routing
// variant of the golden comparison: PolicyLinkValues at four workers must
// reproduce one worker bit for bit.
func TestPolicyLinkValueGoldenParallelMatchesSequential(t *testing.T) {
	ms := core.BuildMeasured(core.PaperSetOptions{Seed: 1, Scale: 0.12})
	a := ms.AS.Policy
	if a == nil {
		t.Fatal("AS network has no policy annotations")
	}
	for _, budget := range []int{48, 192} {
		want := hierarchy.PolicyLinkValues(a, sampled(budget, 1))
		got := hierarchy.PolicyLinkValues(a, sampled(budget, 4))
		if !reflect.DeepEqual(got.Values, want.Values) {
			t.Errorf("budget=%d: policy link values at P=4 differ from P=1", budget)
		}
	}
}

// TestTraversalSetSizesGoldenParallelMatchesSequential pins the per-edge
// traversal-set counts at four workers to one; counts are integer
// increments, so any divergence is a sweep bug.
func TestTraversalSetSizesGoldenParallelMatchesSequential(t *testing.T) {
	opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
	nets := map[string]*graph.Graph{
		"PLRG":      core.BuildNetwork("PLRG", opts).Graph,
		"Tree":      core.BuildNetwork("Tree", opts).Graph,
		"SmallMesh": canonical.Mesh(12, 12),
	}
	for name, g := range nets {
		want := hierarchy.TraversalSetSizes(g, sampled(64, 1))
		got := hierarchy.TraversalSetSizes(g, sampled(64, 4))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: traversal-set sizes at P=4 differ from P=1", name)
		}
	}
}
