package graph

import (
	"math/rand"
	"testing"
)

// TestWideMSBFSMatchesScalarBFS drives the multi-word sweep at every word
// width, including the odd widths that leave the last word partially
// populated, against a scalar BFS per source.
func TestWideMSBFSMatchesScalarBFS(t *testing.T) {
	g := msbfsTestGraph(21, 500, 1100)
	s := NewMSBFSScratch()
	r := rand.New(rand.NewSource(23))
	for _, width := range []int{65, 100, 128, 129, 200, 255, 256} {
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32(r.Intn(g.NumNodes()))
		}
		checkBatchMatchesScalar(t, g, s, sources)
	}
}

// TestWideMSBFSWidthReuse interleaves narrow and wide runs on one scratch:
// the strip width changes between epochs and stale mask words must never
// leak across runs.
func TestWideMSBFSWidthReuse(t *testing.T) {
	g := msbfsTestGraph(29, 300, 800)
	s := NewMSBFSScratch()
	r := rand.New(rand.NewSource(31))
	for _, width := range []int{256, 3, 130, 64, 200, 1} {
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32(r.Intn(g.NumNodes()))
		}
		checkBatchMatchesScalar(t, g, s, sources)
	}
}

// TestApproxDiameter checks the double-sweep estimate on shapes with known
// diameters: exact on paths (trees), and a valid lower bound that reaches
// the true value on small lattices.
func TestApproxDiameter(t *testing.T) {
	// Path of 50 nodes: diameter 49, double sweep is exact on trees.
	b := NewStreamBuilder(50)
	for i := int32(0); i < 49; i++ {
		b.AddEdge(i, i+1)
	}
	if d := ApproxDiameter(b.Graph(), NewBFSScratch()); d != 49 {
		t.Fatalf("path diameter %d, want 49", d)
	}
	// 8x8 grid: diameter 14.
	grid := NewStreamBuilder(64)
	at := func(r, c int32) int32 { return r*8 + c }
	for r := int32(0); r < 8; r++ {
		for c := int32(0); c < 8; c++ {
			if c+1 < 8 {
				grid.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < 8 {
				grid.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	if d := ApproxDiameter(grid.Graph(), NewBFSScratch()); d != 14 {
		t.Fatalf("grid diameter %d, want 14", d)
	}
	if d := ApproxDiameter(&Graph{}, NewBFSScratch()); d != 0 {
		t.Fatalf("empty diameter %d, want 0", d)
	}
}
