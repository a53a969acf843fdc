package partition

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
)

// contractSorted is the historical contraction, kept as the reference for
// contract: per coarse node, merge its members' neighbour runs with an
// epoch-stamped accumulator, then sort the run by target id.
func (ws *Workspace) contractSorted(fine, coarse *level, nc int) {
	var acc graph.Stamp
	accPos := make([]int32, nc)
	coarse.nodeW = growInt32(coarse.nodeW, nc)
	for i := range coarse.nodeW[:nc] {
		coarse.nodeW[i] = 0
	}
	coarse.off = growInt32(coarse.off, nc+1)
	coarse.adj = coarse.adj[:0]
	for cu := int32(0); cu < int32(nc); cu++ {
		acc.Begin(nc)
		start := len(coarse.adj)
		coarse.off[cu] = int32(start)
		for _, u := range [2]int32{ws.memberA[cu], ws.memberB[cu]} {
			if u < 0 {
				continue
			}
			coarse.nodeW[cu] += fine.nodeW[u]
			for _, e := range fine.edgesOf(u) {
				cv := fine.cmap[e.to]
				if cv == cu {
					continue
				}
				if acc.Visit(cv) {
					accPos[cv] = int32(len(coarse.adj) - start)
					coarse.adj = append(coarse.adj, wedge{cv, e.w})
				} else {
					coarse.adj[start+int(accPos[cv])].w += e.w
				}
			}
		}
		slices.SortFunc(coarse.adj[start:], func(a, b wedge) int {
			return int(a.to) - int(b.to)
		})
	}
	coarse.off[nc] = int32(len(coarse.adj))
}

// checkCoarsenMatchesSorted coarsens one level with the transposed
// contraction, under the weight cap a bisection of the level's total weight
// uses, then re-contracts the same matching with the sorted reference, and fails unless the two coarse levels agree and cmap is
// untouched. The transposed build writes into buffers full of stale
// entries, as a recycled workspace level holds them.
func checkCoarsenMatchesSorted(t *testing.T, fine *level, seed int64) {
	t.Helper()
	n := fine.numNodes()
	stale := make([]wedge, len(fine.adj)+8)
	for i := range stale {
		stale[i] = wedge{int32(i % (n + 1)), 9}
	}
	ws := NewWorkspace()
	got := &level{adj: stale}
	ws.coarsen(fine, got, maxNodeWeight(fine.totalNodeW()), rand.New(rand.NewSource(seed)))
	cmap := slices.Clone(fine.cmap)
	want := &level{}
	nc := got.numNodes()
	ws.contractSorted(fine, want, nc)
	if !slices.Equal(cmap, fine.cmap) ||
		!slices.Equal(got.nodeW, want.nodeW) ||
		!slices.Equal(got.off, want.off) ||
		!slices.Equal(got.adj[:got.off[nc]], want.adj) {
		t.Fatalf("seed %d, %d fine nodes: transposed contraction\n nodeW %v\n off %v\n adj %v\nsorted reference\n nodeW %v\n off %v\n adj %v",
			seed, n, got.nodeW, got.off, got.adj, want.nodeW, want.off, want.adj)
	}
}

// FuzzCoarsenMatchesSorted compares the transposed contraction with the
// historical stamp-merge-then-sort contraction on random weighted levels
// of up to 64 nodes (drawn like FuzzRefineMatchesHeap's), under the
// matching an independent RNG seed draws.
func FuzzCoarsenMatchesSorted(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), int64(7))
	f.Add(int64(2), uint8(63), uint8(8), int64(-3))
	f.Add(int64(3), uint8(40), uint8(200), int64(11))
	f.Add(int64(4), uint8(0), uint8(255), int64(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density uint8, matchSeed int64) {
		n := 1 + int(nRaw)%64
		fine, _ := randomLevel(rand.New(rand.NewSource(seed)), n, float64(density)/255)
		checkCoarsenMatchesSorted(t, fine, matchSeed)
	})
}

// TestCoarsenMatchesSortedMultilevel runs the comparison down whole
// hierarchies of larger levels: every rung of a 65–600-node level's
// coarsening, whose coarse levels carry the merged multi-edge weights
// that a fuzzed first level only has on its first contraction.
func TestCoarsenMatchesSortedMultilevel(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		n := 65 + r.Intn(536)
		fine, _ := randomLevel(r, n, (1+15*r.Float64())/float64(n))
		maxW := maxNodeWeight(fine.totalNodeW())
		for depth := 0; fine.numNodes() > 1 && depth < 12; depth++ {
			checkCoarsenMatchesSorted(t, fine, int64(i*100+depth))
			next := &level{}
			NewWorkspace().coarsen(fine, next, maxW, rand.New(rand.NewSource(int64(i*100+depth))))
			if next.numNodes() >= fine.numNodes() {
				break
			}
			fine = next
		}
	}
}
