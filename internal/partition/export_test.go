package partition

import (
	"math/rand"

	"topocmp/internal/graph"
)

// BisectHeap is the bisection on the lazy-heap reference refinement
// (heap_test.go), for the external differential tests.
var BisectHeap = bisectHeap

// BisectWith runs the bisection on ws and returns the cut size with a
// fresh copy of the side assignment, which the tests keep across calls.
func BisectWith(ws *Workspace, g *graph.Graph, r *rand.Rand) (int, []bool) {
	cut, side := bisect(ws, g, r)
	out := make([]bool, g.NumNodes())
	copy(out, side)
	return cut, out
}
