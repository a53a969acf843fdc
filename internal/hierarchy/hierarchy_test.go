package hierarchy

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

func TestAccessLinkValueIsOne(t *testing.T) {
	// Star: every link is an access link; the paper says access links have
	// vertex cover 1 (remove the singleton endpoint).
	b := graph.NewStreamBuilder(8)
	for i := int32(1); i < 8; i++ {
		b.AddEdge(0, i)
	}
	r := LinkValues(b.Graph(), Options{})
	for i, v := range r.Values {
		if math.Abs(v-1) > 1e-9 {
			t.Fatalf("access link %v value = %v, want 1", r.Edges[i], v)
		}
	}
}

func TestBridgeValueInBarbell(t *testing.T) {
	// Two K4s joined by a bridge: the bridge carries all 16 cross pairs;
	// its cover removes one side (4 nodes, weight 1 each) => value ~4.
	b := graph.NewStreamBuilder(8)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
			b.AddEdge(i+4, j+4)
		}
	}
	b.AddEdge(0, 4)
	g := b.Graph()
	r := LinkValues(g, Options{})
	var bridge float64
	var maxOther float64
	for i, e := range r.Edges {
		if (e.U == 0 && e.V == 4) || (e.U == 4 && e.V == 0) {
			bridge = r.Values[i]
		} else if r.Values[i] > maxOther {
			maxOther = r.Values[i]
		}
	}
	if bridge < 3.5 || bridge > 4.5 {
		t.Fatalf("bridge value = %v, want ~4", bridge)
	}
	if bridge <= maxOther {
		t.Fatalf("bridge %v should dominate other links (max %v)", bridge, maxOther)
	}
}

func TestPathMiddleDominates(t *testing.T) {
	g := canonical.Linear(9)
	r := LinkValues(g, Options{})
	// Middle edge (3,4)/(4,5) splits the path evenly: cover ~4; end edges
	// are access links: value 1.
	var mid, end float64
	for i, e := range r.Edges {
		if e.U == 4 || e.V == 4 {
			if r.Values[i] > mid {
				mid = r.Values[i]
			}
		}
		if e.U == 0 {
			end = r.Values[i]
		}
	}
	if math.Abs(end-1) > 1e-9 {
		t.Fatalf("end link value = %v, want 1", end)
	}
	if mid < 3 {
		t.Fatalf("middle link value = %v, want >= 3", mid)
	}
}

func TestTreeRootEdgesCarryHierarchy(t *testing.T) {
	g := canonical.Tree(3, 5) // 364 nodes
	r := LinkValues(g, Options{})
	norm := r.Normalized()
	top := 0.0
	for _, v := range norm {
		if v > top {
			top = v
		}
	}
	// Root edges separate ~1/3 of the nodes: normalized value ~0.33.
	if top < 0.25 {
		t.Fatalf("tree top normalized value = %v, want >= 0.25", top)
	}
	if Classify(r) != Strict {
		t.Fatalf("tree classified %v, want strict", Classify(r))
	}
}

func TestRandomGraphLoose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := canonical.Random(rng, 300, 0.025)
	r := LinkValues(g, Options{})
	if c := Classify(r); c != Loose {
		t.Fatalf("random graph classified %v, want loose", c)
	}
}

func TestMeshLoose(t *testing.T) {
	g := canonical.Mesh(14, 14)
	r := LinkValues(g, Options{})
	if c := Classify(r); c != Loose {
		t.Fatalf("mesh classified %v, want loose", c)
	}
}

func TestPLRGModerate(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(2)), plrg.Params{N: 800, Beta: 2.2})
	r := LinkValues(g, Options{MaxSources: 200, Rand: rand.New(rand.NewSource(3))})
	if c := Classify(r); c != Moderate {
		t.Fatalf("PLRG classified %v, want moderate", c)
	}
}

func TestPLRGCorrelationHigherThanTree(t *testing.T) {
	// Figure 5: PLRG has the highest link-value/degree correlation, the
	// Tree the lowest.
	gp := plrg.MustGenerate(rand.New(rand.NewSource(4)), plrg.Params{N: 600, Beta: 2.2})
	rp := LinkValues(gp, Options{MaxSources: 150, Rand: rand.New(rand.NewSource(5))})
	corrP := rp.DegreeCorrelation(gp)
	gt := canonical.Tree(3, 5)
	rt := LinkValues(gt, Options{})
	corrT := rt.DegreeCorrelation(gt)
	if corrP <= corrT {
		t.Fatalf("PLRG correlation %v should exceed tree %v", corrP, corrT)
	}
	if corrP < 0.5 {
		t.Fatalf("PLRG correlation = %v, want high", corrP)
	}
}

func TestSourceSamplingApproximatesFull(t *testing.T) {
	g := canonical.Mesh(10, 10)
	full := LinkValues(g, Options{})
	sampled := LinkValues(g, Options{MaxSources: 50, Rand: rand.New(rand.NewSource(6))})
	// Compare rank distributions loosely: top normalized values similar.
	fr := full.RankDistribution()
	sr := sampled.RankDistribution()
	if math.Abs(fr.Points[0].Y-sr.Points[0].Y) > 0.25*fr.Points[0].Y+0.02 {
		t.Fatalf("sampled top %v deviates from full %v", sr.Points[0].Y, fr.Points[0].Y)
	}
}

func TestRankDistributionShape(t *testing.T) {
	g := canonical.Tree(2, 6)
	r := LinkValues(g, Options{})
	s := r.RankDistribution()
	if s.Len() != g.NumEdges() {
		t.Fatalf("rank points = %d, want %d", s.Len(), g.NumEdges())
	}
	for i := 1; i < s.Len(); i++ {
		if s.Points[i].Y > s.Points[i-1].Y+1e-12 {
			t.Fatalf("rank distribution not non-increasing at %d", i)
		}
	}
}

func TestPolicyLinkValuesAllSiblingEqualsPlain(t *testing.T) {
	// With all-sibling annotations, policy routing equals shortest-path
	// routing, so link values must agree.
	g := canonical.Mesh(6, 6)
	a := policy.NewAnnotated(g)
	for _, e := range g.Edges() {
		a.SetSibling(e.U, e.V)
	}
	plain := LinkValues(g, Options{})
	pol := PolicyLinkValues(a, Options{})
	for i := range plain.Values {
		if math.Abs(plain.Values[i]-pol.Values[i]) > 1e-6 {
			t.Fatalf("edge %v: plain %v vs policy %v",
				plain.Edges[i], plain.Values[i], pol.Values[i])
		}
	}
}

func TestPolicyConcentratesValues(t *testing.T) {
	// Provider-customer chain hierarchy: with policy routing the top link
	// values should not decrease (paths concentrate; §5.1).
	b := graph.NewStreamBuilder(13)
	// A 3-level binary provider tree plus cross peer links between leaves.
	edges := [][2]int32{
		{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {2, 6},
		{3, 7}, {3, 8}, {4, 9}, {5, 10}, {6, 11}, {6, 12},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Graph()
	a := policy.NewAnnotated(g)
	for _, e := range edges {
		a.SetProviderCustomer(e[0], e[1])
	}
	plain := LinkValues(g, Options{})
	pol := PolicyLinkValues(a, Options{})
	maxPlain, maxPol := 0.0, 0.0
	for i := range plain.Values {
		if plain.Values[i] > maxPlain {
			maxPlain = plain.Values[i]
		}
		if pol.Values[i] > maxPol {
			maxPol = pol.Values[i]
		}
	}
	if maxPol < maxPlain-1e-9 {
		t.Fatalf("policy top value %v below plain %v", maxPol, maxPlain)
	}
}

func TestClassStrings(t *testing.T) {
	if Strict.String() != "strict" || Moderate.String() != "moderate" || Loose.String() != "loose" {
		t.Fatal("bad class strings")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := canonical.Linear(1)
	r := LinkValues(g, Options{})
	if len(r.Values) != 0 {
		t.Fatal("no edges expected")
	}
	if Classify(r) != Loose {
		t.Fatal("empty result should classify loose")
	}
}

// TestSweepWorkerPanicReachesCaller: a panic on one sweep worker is
// re-raised on the caller's goroutine once the other worker stops.
func TestSweepWorkerPanicReachesCaller(t *testing.T) {
	g := canonical.Mesh(8, 8)
	sources := make([]int32, g.NumNodes())
	for i := range sources {
		sources[i] = int32(i)
	}
	opts := &Options{Parallelism: 2}
	got := func() (p any) {
		defer func() { p = recover() }()
		sweep(opts, sources, g.NumEdges(), func(_ *sweepScratch, u int32) {
			if u == 50 {
				panic("visit failed")
			}
		})
		return nil
	}()
	if wp, ok := got.(*ball.WorkerPanic); !ok || wp.Value != "visit failed" {
		t.Errorf("recovered %#v, want the worker's panic", got)
	}
}
