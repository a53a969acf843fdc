package flow

import (
	"math/rand"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
)

// TestMaxFlowGolden pins exact flow values on fixed seeded graphs, guarding
// the Reset/CSR solver rewrite: max-flow values are invariants of the
// graph, so any drift here is a solver bug, not a tolerable reordering.
func TestMaxFlowGolden(t *testing.T) {
	mesh := canonical.Mesh(20, 20)
	p := plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 600, Beta: 2.246})

	if f := edgeDisjointPaths(mesh, 0, 399); f != 2 {
		t.Errorf("mesh corner flow = %d, want 2", f)
	}
	if f := edgeDisjointPaths(p, 0, int32(p.NumNodes()-1)); f != 1 {
		t.Errorf("plrg end-to-end flow = %d, want 1", f)
	}
	var nw Network
	nw.Reset(p)
	sum := 0
	for v := int32(1); v < 64; v++ {
		sum += nw.MaxFlow(0, v)
	}
	if sum != 81 {
		t.Errorf("plrg 64-target flow sum = %d, want 81", sum)
	}
}

// TestResetReuseMatchesFresh drives one solver through graphs of different
// sizes via Reset and checks every value against a fresh network, so
// recycled arcs/CSR/scratch can never leak state between graphs.
func TestResetReuseMatchesFresh(t *testing.T) {
	graphs := []*graph.Graph{
		canonical.Mesh(12, 12),
		canonical.Complete(9),
		canonical.Linear(5),
		canonical.Random(rand.New(rand.NewSource(4)), 150, 0.05),
		canonical.Mesh(12, 12),
	}
	var nw Network
	for round := 0; round < 2; round++ {
		for gi, g := range graphs {
			nw.Reset(g)
			n := int32(g.NumNodes())
			for _, tgt := range []int32{n - 1, n / 2, 1} {
				want := edgeDisjointPaths(g, 0, tgt)
				if got := nw.MaxFlow(0, tgt); got != want {
					t.Fatalf("round %d graph %d target %d: reused flow %d != fresh %d",
						round, gi, tgt, got, want)
				}
			}
		}
	}
}
