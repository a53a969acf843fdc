package graph

import (
	"math"
	"math/rand"
	"testing"
)

// scalarBrandes is the reference accumulation: per source, a sigma-counting
// BFS followed by the reverse-visit-order dependency pass, exactly the loop
// the scalar metrics path runs.
func scalarBrandes(g *Graph, sources []int32) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	delta := make([]float64, n)
	for _, src := range sources {
		dist, sigma, order := g.BFSCounts(src)
		for i := range delta {
			delta[i] = 0
		}
		for i := len(order) - 1; i > 0; i-- {
			w := order[i]
			for _, v := range g.Neighbors(w) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			bc[w] += delta[w]
		}
	}
	return bc
}

func checkBrandesMatches(t *testing.T, g *Graph, b *BrandesScratch, sources []int32) {
	t.Helper()
	want := scalarBrandes(g, sources)
	got := make([]float64, g.NumNodes())
	b.Accumulate(g, sources, got)
	for v := range want {
		diff := math.Abs(got[v] - want[v])
		if diff > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("bc[%d] = %g, want %g (batch of %d)", v, got[v], want[v], len(sources))
		}
	}
}

func TestBrandesMatchesScalar(t *testing.T) {
	g := msbfsTestGraph(13, 300, 700)
	b := NewBrandesScratch()
	r := rand.New(rand.NewSource(17))
	for _, width := range []int{1, 2, 7, 33, 64} {
		perm := r.Perm(g.NumNodes())
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32(perm[i])
		}
		checkBrandesMatches(t, g, b, sources)
	}
}

// TestBrandesScratchReuse reruns one scratch across graphs and widths; the
// strips and rows each run clears must isolate it from the runs before.
func TestBrandesScratchReuse(t *testing.T) {
	b := NewBrandesScratch()
	big := msbfsTestGraph(19, 400, 1200)
	small := msbfsTestGraph(29, 60, 90)
	checkBrandesMatches(t, big, b, []int32{0, 17, 399, 201})
	checkBrandesMatches(t, small, b, []int32{5, 0, 59})
	checkBrandesMatches(t, big, b, []int32{399})
}

// TestBrandesSplitBatches pins the additive contract: accumulating sources
// in two batches must equal one scalar pass over all of them.
func TestBrandesSplitBatches(t *testing.T) {
	g := msbfsTestGraph(31, 250, 600)
	b := NewBrandesScratch()
	sources := []int32{3, 9, 27, 81, 10, 200, 121, 42}
	want := scalarBrandes(g, sources)
	got := make([]float64, g.NumNodes())
	b.Accumulate(g, sources[:5], got)
	b.Accumulate(g, sources[5:], got)
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("split bc[%d] = %g, want %g", v, got[v], want[v])
		}
	}
}

// TestBrandesDuplicateSources: a repeated source contributes once per
// occurrence, matching a scalar loop over the same list.
func TestBrandesDuplicateSources(t *testing.T) {
	g := msbfsTestGraph(41, 120, 300)
	b := NewBrandesScratch()
	checkBrandesMatches(t, g, b, []int32{5, 5, 9, 5})
}

// TestBrandesBatchPanics: a batch of no sources, too many sources or a
// source outside the graph panics before any strip changes, and a run cut
// short part way (here by a bc too short for the fold) leaves nothing the
// next run reads, so the scratch still matches the reference afterwards.
func TestBrandesBatchPanics(t *testing.T) {
	g := msbfsTestGraph(37, 50, 100)
	b := NewBrandesScratch()
	// A larger graph first leaves strips longer than g's, so no index
	// check but Accumulate's own catches source 50.
	checkBrandesMatches(t, msbfsTestGraph(5, 200, 400), b, []int32{0, 199})
	for _, tc := range []struct {
		sources []int32
		bcLen   int
	}{
		{nil, 50}, {make([]int32, BrandesWidth+1), 50}, {[]int32{3, 50}, 50}, {[]int32{-1, 2}, 50},
		{[]int32{3, 2, 49}, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Accumulate with %v into %d slots did not panic", tc.sources, tc.bcLen)
				}
			}()
			b.Accumulate(g, tc.sources, make([]float64, tc.bcLen))
		}()
		checkBrandesMatches(t, g, b, []int32{3, 2, 49})
	}
}
