package hierarchy_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
	"topocmp/internal/hierarchy"
	"topocmp/internal/obs"
)

// sigmaGoldenNets builds the paper families the link-value golden tests
// sweep: the two measured graphs (RL reduced to its core, as the suite
// computes link values), the generated and canonical families, plus a small
// lattice whose diameter clears the batching cutoff — so the batched kernel
// is exercised on a lattice shape whose binomial path counts still fit
// float64's exact-integer range.
func sigmaGoldenNets(t *testing.T) map[string]*graph.Graph {
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

// forced is the golden tests' option set: a sampled pair universe with a
// fixed seed, the given worker count, and the row provider forced.
func forced(budget, parallel int, p hierarchy.Provider) hierarchy.Options {
	return hierarchy.Force(hierarchy.Options{
		MaxSources:  budget,
		Rand:        rand.New(rand.NewSource(7)),
		Parallelism: parallel,
	}, p)
}

// TestLinkValueGoldenScalarVsSigma byte-compares LinkValues across the row
// providers: one scalar BFS per source against the batched sigma-carrying
// MSBFS kernel, across the paper families × sampled source budgets ×
// worker counts. Path counts are exact integers in float64, so the
// comparison is exact equality, not a tolerance. The 30×30 Mesh — whose
// diameter sends the probe to the scalar provider and whose path counts
// are the reason that provider exists — is compared probed-vs-scalar;
// every other family forces both providers explicitly.
func TestLinkValueGoldenScalarVsSigma(t *testing.T) {
	for name, g := range sigmaGoldenNets(t) {
		budgets := []int{48, 192}
		if g.NumNodes() <= 700 {
			budgets = append(budgets, 0) // full enumeration, small nets only
		}
		other := hierarchy.BatchedRows
		if name == "Mesh" {
			other = hierarchy.Probed
		}
		for _, budget := range budgets {
			want := hierarchy.LinkValues(g, forced(budget, 1, hierarchy.ScalarRows))
			for _, parallel := range []int{1, 4} {
				for _, p := range []hierarchy.Provider{hierarchy.ScalarRows, other} {
					got := hierarchy.LinkValues(g, forced(budget, parallel, p))
					if !reflect.DeepEqual(got.Values, want.Values) {
						t.Errorf("%s budget=%d P=%d provider=%d: link values differ from scalar P=1",
							name, budget, parallel, p)
					}
				}
			}
		}
	}
}

// TestHalfCoversMatchOrderedRoute checks the sweep over unordered pairs
// against the ordered sweep it replaced, kept in ordered_test.go, on every
// quick-scale family (RL on its core, as the suite computes link values):
// each edge's cover holds the same nodes, and its value is within 4 ulp.
// The reverse copies' fractions, computed from the other endpoint's rows,
// are the only difference between the routes. LinkValues must return the
// half route's values bit for bit.
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
	const maxULP = 4
	for name, g := range nets {
		half, halfCovers := hierarchy.HalfCovers(g, forced(128, 1, hierarchy.Probed))
		ordered, orderedCovers := hierarchy.OrderedCovers(g, forced(128, 1, hierarchy.Probed))
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
		if got := hierarchy.LinkValues(g, forced(128, 1, hierarchy.Probed)); !reflect.DeepEqual(got.Values, half) {
			t.Errorf("%s: LinkValues differs from the half route's covers", name)
		}
		t.Logf("%s: %d of %d values moved", name, moved, len(half))
	}
}

// TestPolicyLinkValueGoldenScalarVsSigma is the policy-routing variant of
// the golden comparison: the batched provider traverses the valley-free
// product graph as one directed CSR (policy.ProductCSR) and must reproduce
// the scalar per-source product BFS bit for bit.
func TestPolicyLinkValueGoldenScalarVsSigma(t *testing.T) {
	ms := core.BuildMeasured(core.PaperSetOptions{Seed: 1, Scale: 0.12})
	a := ms.AS.Policy
	if a == nil {
		t.Fatal("AS network has no policy annotations")
	}
	for _, budget := range []int{48, 192} {
		want := hierarchy.PolicyLinkValues(a, forced(budget, 1, hierarchy.ScalarRows))
		for _, parallel := range []int{1, 4} {
			for _, p := range []hierarchy.Provider{hierarchy.ScalarRows, hierarchy.BatchedRows} {
				got := hierarchy.PolicyLinkValues(a, forced(budget, parallel, p))
				if !reflect.DeepEqual(got.Values, want.Values) {
					t.Errorf("budget=%d P=%d provider=%d: policy link values differ from scalar P=1",
						budget, parallel, p)
				}
			}
		}
	}
}

// TestTraversalSetSizesGoldenScalarVsSigma pins the per-edge traversal-set
// counts across the providers and worker counts; counts are integer
// increments, so equality is exact by construction and any divergence is a
// kernel bug.
func TestTraversalSetSizesGoldenScalarVsSigma(t *testing.T) {
	opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
	nets := map[string]*graph.Graph{
		"PLRG":      core.BuildNetwork("PLRG", opts).Graph,
		"Tree":      core.BuildNetwork("Tree", opts).Graph,
		"SmallMesh": canonical.Mesh(12, 12),
	}
	for name, g := range nets {
		want := hierarchy.TraversalSetSizes(g, forced(64, 1, hierarchy.ScalarRows))
		for _, parallel := range []int{1, 4} {
			got := hierarchy.TraversalSetSizes(g, forced(64, parallel, hierarchy.BatchedRows))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s P=%d: batched traversal-set sizes differ from scalar", name, parallel)
			}
		}
	}
}

// TestSigmaRoutingCounters asserts the diameter probe actually routes: the
// lattice family lands on the scalar provider, the heavy-tailed family on
// the batched kernel — both observable through the hierarchy.* counters
// the sweeps publish.
func TestSigmaRoutingCounters(t *testing.T) {
	opts := core.PaperSetOptions{Seed: 1, Scale: 0.12}
	cases := []struct {
		name    string
		g       *graph.Graph
		counter string
		zero    string
	}{
		{"Mesh", core.BuildNetwork("Mesh", opts).Graph, "hierarchy.sigma_scalar", "hierarchy.sigma_batches"},
		{"PLRG", core.BuildNetwork("PLRG", opts).Graph, "hierarchy.sigma_batches", "hierarchy.sigma_scalar"},
	}
	for _, tc := range cases {
		reg := obs.NewRegistry()
		hierarchy.LinkValues(tc.g, hierarchy.Options{
			MaxSources: 96,
			Rand:       rand.New(rand.NewSource(7)),
			Metrics:    reg,
		})
		if v := reg.Counter(tc.counter).Value(); v == 0 {
			t.Errorf("%s: %s = 0, want > 0", tc.name, tc.counter)
		}
		if v := reg.Counter(tc.zero).Value(); v != 0 {
			t.Errorf("%s: %s = %d, want 0", tc.name, tc.zero, v)
		}
	}
}
