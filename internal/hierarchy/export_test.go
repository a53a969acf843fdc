package hierarchy

import "topocmp/internal/graph"

// HalfCovers returns every edge's link value and final cover set from the
// production sweep over unordered pairs, and OrderedCovers the same from
// the ordered reference sweep (ordered_test.go).
func HalfCovers(g *graph.Graph, opts Options) ([]float64, [][]int32) {
	return routeCovers(g, opts, true, sweepPlain)
}

func OrderedCovers(g *graph.Graph, opts Options) ([]float64, [][]int32) {
	return routeCovers(g, opts, false, sweepOrdered)
}
