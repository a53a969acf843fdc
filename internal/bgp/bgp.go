// Package bgp simulates the measurement process behind the paper's AS
// graph: a route collector (like route-views.oregon-ix.net) peers with
// several backbone ASes and records each peer's best AS path to every
// destination; the AS graph is then re-assembled from adjacent pairs on
// those paths. The result inherits BGP collection's characteristic
// incompleteness — backup links and distant peerings that no collected best
// path crosses are invisible, exactly as in the measured graph the paper
// analyzes.
package bgp

import (
	"cmp"
	"math/rand"
	"slices"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// Table is a collected set of AS paths (one per (vantage, destination)
// pair, vantage first).
type Table struct {
	Paths [][]int32
}

// Collect gathers best valley-free paths from each vantage AS to every
// reachable destination, as a route collector peering with those ASes
// would. Unreachable destinations are skipped.
func Collect(a *policy.Annotated, vantages []int32) *Table {
	t := &Table{}
	n := a.G.NumNodes()
	var pt *policy.PathTree
	for _, v := range vantages {
		pt = a.PathsInto(pt, v)
		for dst := int32(0); dst < int32(n); dst++ {
			if dst == v {
				continue
			}
			if path := pt.Path(dst); path != nil {
				t.Paths = append(t.Paths, path)
			}
		}
	}
	return t
}

// PickVantages selects k distinct vantage ASes preferring the
// highest-degree ones (route collectors peer with backbone ASes; the
// paper's table peers with more than 20 backbone routers).
func PickVantages(g *graph.Graph, k int, r *rand.Rand) []int32 {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	// Order by degree descending with random jitter among ties: a stable
	// sort keeps the shuffled order within each degree.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(g.Degree(b), g.Degree(a)) })
	return order[:k]
}

// ExtractGraph re-assembles the measured AS graph: nodes are renumbered
// densely over the ASes appearing on any path; edges join path-adjacent
// ASes. It returns the graph and the mapping orig[newID] = AS id.
func (t *Table) ExtractGraph() (*graph.Graph, []int32) {
	// AS ids below the table's hop count index a dense array (a simulated
	// table's ids are below its AS count). A larger or negative id, possible
	// only in a parsed table, goes to a map instead, so the array never
	// outgrows the table.
	hops, maxAS := 0, int32(-1)
	for _, p := range t.Paths {
		hops += len(p)
		for _, as := range p {
			maxAS = max(maxAS, as)
		}
	}
	index := make([]int32, min(int(maxAS)+1, hops))
	for i := range index {
		index[i] = -1
	}
	sparse := map[int32]int32{}
	var orig []int32
	id := func(as int32) int32 {
		if uint32(as) < uint32(len(index)) {
			if index[as] < 0 {
				index[as] = int32(len(orig))
				orig = append(orig, as)
			}
			return index[as]
		}
		i, ok := sparse[as]
		if !ok {
			i = int32(len(orig))
			sparse[as] = i
			orig = append(orig, as)
		}
		return i
	}
	// Path-adjacent pairs stream into the builder as ids are minted; the
	// freeze dedups, so no seen-set or edge list is held alongside the CSR.
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
