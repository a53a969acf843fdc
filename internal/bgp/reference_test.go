package bgp

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
)

// pickVantagesInsertion is the historical PickVantages, kept as the
// reference for the stable sort: an insertion sort after the shuffle that
// moves an AS left only past strictly lower degrees.
func pickVantagesInsertion(g *graph.Graph, k int, r *rand.Rand) []int32 {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i := 1; i < n; i++ {
		for j := i; j > 0 && g.Degree(order[j]) > g.Degree(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	return order[:k]
}

// extractGraphMap is the historical ExtractGraph, kept as the reference for
// the dense id array: every AS goes through one map.
func extractGraphMap(t *Table) (*graph.Graph, []int32) {
	index := map[int32]int32{}
	var orig []int32
	id := func(as int32) int32 {
		if i, ok := index[as]; ok {
			return i
		}
		i := int32(len(orig))
		index[as] = i
		orig = append(orig, as)
		return i
	}
	sb := graph.NewStreamBuilder(0)
	for _, p := range t.Paths {
		for i := 0; i+1 < len(p); i++ {
			u, v := id(p[i]), id(p[i+1])
			if u == v {
				continue
			}
			sb.EnsureNodes(len(orig))
			sb.AddEdge(u, v)
		}
	}
	sb.EnsureNodes(len(orig))
	return sb.Graph(), orig
}

func TestPickVantagesMatchesInsertionSort(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		as := testInternet(t, 300*int(seed), seed)
		for _, k := range []int{1, 20, as.Graph.NumNodes() + 5} {
			got := PickVantages(as.Graph, k, rand.New(rand.NewSource(seed+100)))
			want := pickVantagesInsertion(as.Graph, k, rand.New(rand.NewSource(seed+100)))
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d k %d: vantages %v, reference %v", seed, k, got[:min(k, 8)], want[:min(k, 8)])
			}
		}
	}
}

// TestExtractGraphMatchesMap checks the dense-array renumbering against the
// map on a collected table and on parsed-table ids the array cannot hold
// (negative, at and far above the hop count), mixed with ids it can.
func TestExtractGraphMatchesMap(t *testing.T) {
	as := testInternet(t, 900, 9)
	collected := Collect(as.Annotated, PickVantages(as.Graph, 6, rand.New(rand.NewSource(10))))
	// 15 hops: ids 0-14 index the array, 15 is the first one past it.
	mixed := &Table{Paths: [][]int32{
		{3, 1 << 30, 7, -4}, {7, 2}, {9}, {-4, 3, 2, 2147483647}, {1 << 30, 0}, {15, 14},
	}}
	for name, table := range map[string]*Table{"collected": collected, "mixed": mixed, "empty": {}} {
		g, orig := table.ExtractGraph()
		wg, worig := extractGraphMap(table)
		if g.Fingerprint() != wg.Fingerprint() || !slices.Equal(orig, worig) {
			t.Fatalf("%s: graph or orig differs from the map reference", name)
		}
	}
}
