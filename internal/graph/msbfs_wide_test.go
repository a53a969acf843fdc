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
