package partition

import (
	"math/rand"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
)

// TestCutSizeGolden pins exact cut values on fixed seeded graphs. The
// multilevel pipeline is deterministic for a fixed Options.Rand, and the
// workspace rewrite is required to preserve the coarsening / matching /
// refinement order bit-for-bit, so these values must never drift: a change
// here means resilience series change and every warm suite cache goes stale.
func TestCutSizeGolden(t *testing.T) {
	mesh := canonical.Mesh(20, 20)
	tree := canonical.Tree(3, 6)
	random := canonical.Random(rand.New(rand.NewSource(7)), 300, 0.03)
	p := plrg.MustGenerate(rand.New(rand.NewSource(3)), plrg.Params{N: 600, Beta: 2.246})

	cases := []struct {
		name string
		got  int
		want int
	}{
		{"mesh20", CutSizeWith(NewWorkspace(), mesh, rand.New(rand.NewSource(11))), 20},
		{"tree3x6", CutSizeWith(NewWorkspace(), tree, rand.New(rand.NewSource(12))), 5},
		{"random300", CutSizeWith(NewWorkspace(), random, rand.New(rand.NewSource(13))), 355},
		{"plrg600", CutSizeWith(NewWorkspace(), p, rand.New(rand.NewSource(14))), 35},
		{"plrg600-defaults", CutSizeWith(NewWorkspace(), p, nil), 44},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: cut = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestWorkspaceMatchesFresh interleaves one reused workspace across graphs
// of different sizes and shapes and checks every answer against a fresh
// one-shot computation: recycled level arenas, heaps and side buffers must
// never leak state between calls.
func TestWorkspaceMatchesFresh(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mesh", canonical.Mesh(17, 17)},
		{"linear3", canonical.Linear(3)}, // below the coarsest size
		{"tree", canonical.Tree(2, 8)},
		{"random", canonical.Random(rand.New(rand.NewSource(9)), 220, 0.04)},
		{"single", canonical.Linear(1)},
		{"mesh-again", canonical.Mesh(17, 17)},
	}
	ws := NewWorkspace()
	// big → small → big, so shrinking inputs exercise stale high-index
	// levels and oversized recycled buffers.
	for round := 0; round < 3; round++ {
		for _, gc := range graphs {
			seed := int64(100*round + 1)
			reused := CutSizeWith(ws, gc.g, rand.New(rand.NewSource(seed)))
			fresh := CutSizeWith(NewWorkspace(), gc.g, rand.New(rand.NewSource(seed)))
			if reused != fresh {
				t.Fatalf("round %d %s: workspace cut %d != fresh cut %d",
					round, gc.name, reused, fresh)
			}
			cutB, side := BisectWith(ws, gc.g, rand.New(rand.NewSource(seed)))
			if cutB != fresh {
				t.Fatalf("round %d %s: BisectWith cut %d != fresh cut %d",
					round, gc.name, cutB, fresh)
			}
			if len(side) != gc.g.NumNodes() {
				t.Fatalf("round %d %s: side length %d != %d nodes",
					round, gc.name, len(side), gc.g.NumNodes())
			}
			if cutB != trueCut(gc.g, side) {
				t.Fatalf("round %d %s: reported cut %d != actual %d",
					round, gc.name, cutB, trueCut(gc.g, side))
			}
		}
	}
}
