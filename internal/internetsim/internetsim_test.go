package internetsim

import (
	"math/rand"
	"testing"

	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

func TestGenerateASBasics(t *testing.T) {
	as := MustGenerateAS(rand.New(rand.NewSource(1)), ASParams{NumAS: 3000})
	if as.Graph.NumNodes() != 3000 {
		t.Fatalf("nodes = %d", as.Graph.NumNodes())
	}
	if !as.Graph.IsConnected() {
		t.Fatal("AS graph must be connected (every AS has a provider chain to tier-1)")
	}
	// Every edge carries a consistent pair of relationships.
	for _, e := range as.Graph.Edges() {
		ruv, rvu := as.Annotated.Rel(e.U, e.V), as.Annotated.Rel(e.V, e.U)
		switch {
		case ruv == policy.RelCustomer && rvu == policy.RelProvider,
			ruv == policy.RelProvider && rvu == policy.RelCustomer,
			ruv == policy.RelPeer && rvu == policy.RelPeer,
			ruv == policy.RelSibling && rvu == policy.RelSibling:
		default:
			t.Fatalf("edge (%d,%d) annotated %v/%v", e.U, e.V, ruv, rvu)
		}
	}
}

func TestASDegreeHeavyTail(t *testing.T) {
	as := MustGenerateAS(rand.New(rand.NewSource(2)), ASParams{NumAS: 8000})
	g := as.Graph
	if g.MaxDegree() < 100 {
		t.Fatalf("max degree = %d; expected large hubs", g.MaxDegree())
	}
	ccdf := stats.CCDF(g.Degrees())
	fit := stats.LogLogFit(ccdf.Points)
	if fit.Slope > -0.7 {
		t.Fatalf("degree CCDF slope = %.2f; tail too light", fit.Slope)
	}
	// Average degree in the right neighbourhood of the paper's 4.13.
	if d := g.AvgDegree(); d < 2 || d > 8 {
		t.Fatalf("avg degree = %.2f", d)
	}
}

func TestTierStructure(t *testing.T) {
	p := ASParams{NumAS: 2000, NumTier1: 8}
	as := MustGenerateAS(rand.New(rand.NewSource(3)), p)
	counts := map[int]int{}
	for _, tr := range as.Tier {
		counts[tr]++
	}
	if counts[Tier1] != 8 {
		t.Fatalf("tier-1 count = %d, want 8", counts[Tier1])
	}
	if counts[TierTransit] == 0 || counts[TierStub] == 0 {
		t.Fatalf("missing tiers: %v", counts)
	}
	// Stubs have no customers: every stub neighbor relationship from the
	// stub's perspective is provider or peer.
	for v := 0; v < as.Graph.NumNodes(); v++ {
		if as.Tier[v] != TierStub {
			continue
		}
		for _, w := range as.Graph.Neighbors(int32(v)) {
			if as.Annotated.Rel(int32(v), w).String() == "customer" {
				t.Fatalf("stub %d has customer %d", v, w)
			}
		}
	}
}

func TestValidateParams(t *testing.T) {
	if _, err := GenerateAS(rand.New(rand.NewSource(4)), ASParams{NumAS: 2}); err == nil {
		t.Fatal("expected error for tiny NumAS")
	}
	if _, err := GenerateAS(rand.New(rand.NewSource(4)), ASParams{NumAS: 5, NumTier1: 10}); err == nil {
		t.Fatal("expected error for NumTier1 >= NumAS")
	}
}

func TestGenerateRouters(t *testing.T) {
	as := MustGenerateAS(rand.New(rand.NewSource(5)), ASParams{NumAS: 800})
	rl := MustGenerateRouters(rand.New(rand.NewSource(6)), as, RouterParams{})
	g := rl.Graph
	if g.NumNodes() < 2*as.Graph.NumNodes() {
		t.Fatalf("router graph only %d nodes for %d ASes", g.NumNodes(), as.Graph.NumNodes())
	}
	if !g.IsConnected() {
		t.Fatal("router graph must be connected")
	}
	// Average degree near the RL graph's 2.53 (leaf-dominated).
	if d := g.AvgDegree(); d < 1.8 || d > 4.5 {
		t.Fatalf("router avg degree = %.2f, want ~2.5", d)
	}
	// Every router maps to a valid AS.
	for _, a := range rl.ASOf {
		if a < 0 || int(a) >= as.Graph.NumNodes() {
			t.Fatalf("bad AS id %d", a)
		}
	}
}

func TestRouterCountScalesWithDegree(t *testing.T) {
	as := MustGenerateAS(rand.New(rand.NewSource(7)), ASParams{NumAS: 500})
	rl := MustGenerateRouters(rand.New(rand.NewSource(8)), as, RouterParams{})
	// The highest-degree AS should own more routers than a random stub.
	counts := make([]int, as.Graph.NumNodes())
	for _, a := range rl.ASOf {
		counts[a]++
	}
	maxAS, maxDeg := 0, 0
	for v := 0; v < as.Graph.NumNodes(); v++ {
		if d := as.Graph.Degree(int32(v)); d > maxDeg {
			maxAS, maxDeg = v, d
		}
	}
	var stub int
	for v, tr := range as.Tier {
		if tr == TierStub && as.Graph.Degree(int32(v)) == 1 {
			stub = v
			break
		}
	}
	if counts[maxAS] <= counts[stub] {
		t.Fatalf("hub AS routers %d <= stub routers %d", counts[maxAS], counts[stub])
	}
}

func TestDeterminism(t *testing.T) {
	a1 := MustGenerateAS(rand.New(rand.NewSource(9)), ASParams{NumAS: 1000})
	a2 := MustGenerateAS(rand.New(rand.NewSource(9)), ASParams{NumAS: 1000})
	if a1.Graph.NumEdges() != a2.Graph.NumEdges() {
		t.Fatal("same seed should reproduce the AS graph")
	}
}
