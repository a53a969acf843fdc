package plrg

import (
	"math/rand"
	"sort"
	"testing"

	"topocmp/internal/graph"
)

func TestRewirePreservesDegreeSequence(t *testing.T) {
	g := MustGenerate(rand.New(rand.NewSource(1)), Params{N: 1500, Beta: 2.2})
	rw := DegreePreservingRewire(rand.New(rand.NewSource(2)), g, 3)
	// The rewired graph (before component extraction) preserves degrees
	// exactly; after extraction the multiset of the surviving component's
	// degrees is a subset. Check the global invariants that must hold:
	if rw.MaxDegree() > g.MaxDegree() {
		t.Fatalf("rewire raised max degree %d -> %d", g.MaxDegree(), rw.MaxDegree())
	}
	if rw.NumNodes() < g.NumNodes()/2 {
		t.Fatalf("rewire lost too much: %d of %d nodes", rw.NumNodes(), g.NumNodes())
	}
}

func TestRewireExactDegreesOnDenseGraph(t *testing.T) {
	// A dense connected graph survives rewiring intact, so degrees must
	// match exactly.
	b := graph.NewStreamBuilder(40)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		for j := i + 1; j < 40; j++ {
			if r.Float64() < 0.3 {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	g, _ := b.Graph().LargestComponent()
	rw := DegreePreservingRewire(rand.New(rand.NewSource(4)), g, 4)
	if rw.NumNodes() != g.NumNodes() {
		t.Fatalf("dense graph fragmented: %d of %d", rw.NumNodes(), g.NumNodes())
	}
	d1 := g.Degrees()
	d2 := rw.Degrees()
	sort.Ints(d1)
	sort.Ints(d2)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("degree multiset changed at %d: %d vs %d", i, d1[i], d2[i])
		}
	}
}

func TestRewireActuallyRewires(t *testing.T) {
	g := MustGenerate(rand.New(rand.NewSource(5)), Params{N: 800, Beta: 2.2})
	rw := DegreePreservingRewire(rand.New(rand.NewSource(6)), g, 3)
	// Count surviving original edges; mixing should replace most.
	orig := map[[2]int32]bool{}
	for _, e := range g.Edges() {
		orig[[2]int32{e.U, e.V}] = true
	}
	same := 0
	for _, e := range rw.Edges() {
		if orig[[2]int32{e.U, e.V}] {
			same++
		}
	}
	if frac := float64(same) / float64(rw.NumEdges()); frac > 0.5 {
		t.Fatalf("%.2f of edges unchanged; not mixed", frac)
	}
}

func TestRewireTinyGraphNoop(t *testing.T) {
	b := graph.NewStreamBuilder(2)
	b.AddEdge(0, 1)
	g := b.Graph()
	rw := DegreePreservingRewire(rand.New(rand.NewSource(7)), g, 2)
	if rw.NumEdges() != 1 {
		t.Fatalf("tiny graph changed: %d edges", rw.NumEdges())
	}
}
