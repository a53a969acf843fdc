package multicast

import (
	"math"
	"math/rand"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/stats"
)

func TestTreeLinksSingleReceiver(t *testing.T) {
	g := canonical.Linear(10)
	if l := TreeLinks(g, 0, []int32{9}); l != 9 {
		t.Fatalf("links = %d, want 9", l)
	}
	if l := TreeLinks(g, 5, []int32{0, 9}); l != 9 {
		t.Fatalf("two-way links = %d, want 9", l)
	}
}

func TestTreeLinksSharedPrefix(t *testing.T) {
	// Star: every receiver adds exactly one link.
	b := graph.NewStreamBuilder(8)
	for i := int32(1); i < 8; i++ {
		b.AddEdge(0, i)
	}
	g := b.Graph()
	if l := TreeLinks(g, 0, []int32{1, 2, 3}); l != 3 {
		t.Fatalf("star links = %d, want 3", l)
	}
	// Duplicated receivers don't double count.
	if l := TreeLinks(g, 0, []int32{1, 1, 1}); l != 1 {
		t.Fatalf("duplicate receiver links = %d, want 1", l)
	}
}

func TestTreeLinksUnreachable(t *testing.T) {
	b := graph.NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if l := TreeLinks(b.Graph(), 0, []int32{1, 3}); l != 1 {
		t.Fatalf("links = %d, want 1 (receiver 3 unreachable)", l)
	}
}

func TestScalingCurveMonotone(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(1)), plrg.Params{N: 2000, Beta: 2.2})
	curve := ScalingCurve(g, 0, 300, 6, rand.New(rand.NewSource(2)))
	if curve.Len() < 5 {
		t.Fatalf("points = %d", curve.Len())
	}
	for i := 1; i < curve.Len(); i++ {
		if curve.Points[i].Y < curve.Points[i-1].Y {
			t.Fatalf("tree size decreased at %v", curve.Points[i].X)
		}
	}
}

func TestChuangSirbuExponentOnExpandingGraph(t *testing.T) {
	// Phillips et al.: exponentially expanding graphs approximately obey
	// L(m) ∝ m^0.8; accept a generous band.
	g := plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 4000, Beta: 2.2})
	curve := ScalingCurve(g, 0, 800, 8, rand.New(rand.NewSource(4)))
	k := ChuangSirbuExponent(curve)
	if k < 0.6 || k > 0.95 {
		t.Fatalf("Chuang-Sirbu exponent = %.2f, want ~0.8", k)
	}
}

func TestStarExponentIsOne(t *testing.T) {
	// In a star every receiver adds one link: L(m) = m exactly.
	b := graph.NewStreamBuilder(1500)
	for i := int32(1); i < 1500; i++ {
		b.AddEdge(0, i)
	}
	curve := ScalingCurve(b.Graph(), 0, 1000, 4, rand.New(rand.NewSource(5)))
	k := ChuangSirbuExponent(curve)
	if math.Abs(k-1) > 0.05 {
		t.Fatalf("star exponent = %.2f, want 1", k)
	}
}

func TestEfficiencyBelowOneAndFalling(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(6)), plrg.Params{N: 2000, Beta: 2.2})
	curve := ScalingCurve(g, 0, 400, 6, rand.New(rand.NewSource(7)))
	apl, _ := metrics.AveragePathLength(g, 32)
	eff, err := Efficiency(curve, apl)
	if err != nil {
		t.Fatal(err)
	}
	last := eff.Points[eff.Len()-1]
	first := eff.Points[0]
	if last.Y >= first.Y {
		t.Fatalf("efficiency should fall with receivers: %v -> %v", first.Y, last.Y)
	}
	if last.Y >= 1 {
		t.Fatalf("multicast should beat unicast at %v receivers: ratio %v", last.X, last.Y)
	}
}

func TestEfficiencyBadInput(t *testing.T) {
	if _, err := Efficiency(stats.Series{}, 0); err == nil {
		t.Fatal("expected error")
	}
}
