package tiers

import (
	"math/rand"
	"testing"
	"testing/quick"

	"topocmp/internal/graph"
)

func TestPaperInstance(t *testing.T) {
	p := Paper()
	if p.NumNodes() != 5000 {
		t.Fatalf("NumNodes = %d, want 5000", p.NumNodes())
	}
	g := MustGenerate(rand.New(rand.NewSource(1)), p)
	if g.NumNodes() != 5000 {
		t.Fatalf("generated nodes = %d, want 5000", g.NumNodes())
	}
	// Figure 1 reports average degree 2.83; our redundancy interpretation
	// should land in the same neighbourhood.
	if d := g.AvgDegree(); d < 2.3 || d > 3.4 {
		t.Fatalf("avg degree = %.2f, want ~2.8", d)
	}
	if !g.IsConnected() {
		t.Fatal("tiers must be connected")
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{WANNodes: 0, RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1},
		{WANNodes: 10, MANsPerWAN: 2, MANNodes: 0, RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1},
		{WANNodes: 10, RW: 0, RM: 1, RL: 1, RMW: 1, RLM: 1},
		{WANNodes: 10, MANsPerWAN: -1, RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, p)
		}
	}
}

func TestWANOnly(t *testing.T) {
	p := Params{WANNodes: 60, RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1}
	g := MustGenerate(rand.New(rand.NewSource(2)), p)
	if g.NumNodes() != 60 || g.NumEdges() != 59 {
		t.Fatalf("WAN-only MST: %d nodes %d edges, want 60/59", g.NumNodes(), g.NumEdges())
	}
}

func TestRedundancyAddsEdges(t *testing.T) {
	base := Params{WANNodes: 80, RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1}
	rich := base
	rich.RW = 3
	g1 := MustGenerate(rand.New(rand.NewSource(3)), base)
	g2 := MustGenerate(rand.New(rand.NewSource(3)), rich)
	if g2.NumEdges() <= g1.NumEdges() {
		t.Fatalf("redundancy should add edges: %d vs %d", g2.NumEdges(), g1.NumEdges())
	}
}

func TestLANStars(t *testing.T) {
	p := Params{
		MANsPerWAN: 2, LANsPerMAN: 3,
		WANNodes: 10, MANNodes: 5, LANNodes: 6,
		RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1,
	}
	g := MustGenerate(rand.New(rand.NewSource(4)), p)
	if g.NumNodes() != p.NumNodes() {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), p.NumNodes())
	}
	// LAN hosts (non-gateway) must be degree-1 leaves.
	// LANs occupy the tail of the id space in blocks of LANNodes.
	lanBase := p.WANNodes + p.MANsPerWAN*p.MANNodes
	for lan := 0; lan < p.MANsPerWAN*p.LANsPerMAN; lan++ {
		start := lanBase + lan*p.LANNodes
		for h := 1; h < p.LANNodes; h++ {
			if d := g.Degree(int32(start + h)); d != 1 {
				t.Fatalf("LAN host degree = %d, want 1", d)
			}
		}
		if d := g.Degree(int32(start)); d < p.LANNodes-1+p.RLM {
			t.Fatalf("gateway degree = %d, want >= %d", d, p.LANNodes-1+p.RLM)
		}
	}
}

func TestSlowExpansionVsRandom(t *testing.T) {
	// Tiers' geographic construction should expand slower than an
	// equal-size random graph: the mesh-like signature of Figure 2(g).
	p := Params{
		MANsPerWAN: 10, LANsPerMAN: 4,
		WANNodes: 100, MANNodes: 20, LANNodes: 5,
		RW: 2, RM: 2, RL: 1, RMW: 1, RLM: 1,
	}
	g := MustGenerate(rand.New(rand.NewSource(5)), p)
	// Ball around a WAN node after 5 hops.
	ball := len(graph.NewBFSScratch().Ball(g, 0, 5))
	if frac := float64(ball) / float64(g.NumNodes()); frac > 0.8 {
		t.Fatalf("tiers ball covers %.2f of graph in 5 hops; too random-like", frac)
	}
}

// Property: all valid parameterizations yield connected graphs of the
// declared size.
func TestConnectedProperty(t *testing.T) {
	f := func(seed int64, mRaw, lRaw, wRaw uint8) bool {
		p := Params{
			MANsPerWAN: int(mRaw) % 4,
			LANsPerMAN: int(lRaw) % 4,
			WANNodes:   int(wRaw)%30 + 2,
			MANNodes:   6, LANNodes: 4,
			RW: 2, RM: 2, RL: 1, RMW: 1, RLM: 1,
		}
		g, err := Generate(rand.New(rand.NewSource(seed)), p)
		if err != nil {
			return false
		}
		return g.NumNodes() == p.NumNodes() && g.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	p := Params{
		MANsPerWAN: 5, LANsPerMAN: 2,
		WANNodes: 50, MANNodes: 10, LANNodes: 4,
		RW: 2, RM: 2, RL: 1, RMW: 2, RLM: 1,
	}
	a := MustGenerate(rand.New(rand.NewSource(6)), p)
	b := MustGenerate(rand.New(rand.NewSource(6)), p)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed should reproduce the same graph")
	}
}

func TestLANRedundancyAddsHub(t *testing.T) {
	base := Params{
		MANsPerWAN: 1, LANsPerMAN: 2,
		WANNodes: 10, MANNodes: 6, LANNodes: 6,
		RW: 1, RM: 1, RL: 1, RMW: 1, RLM: 1,
	}
	rich := base
	rich.RL = 2
	g1 := MustGenerate(rand.New(rand.NewSource(13)), base)
	g2 := MustGenerate(rand.New(rand.NewSource(13)), rich)
	if g2.NumEdges() <= g1.NumEdges() {
		t.Fatalf("RL=2 should add secondary-hub links: %d vs %d",
			g2.NumEdges(), g1.NumEdges())
	}
	if g2.NumNodes() != g1.NumNodes() {
		t.Fatal("node counts must match")
	}
}
