package hierarchy

import (
	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// HalfCovers returns every edge's link value and final cover set from the
// production sweep over unordered pairs, and OrderedCovers the same from
// the ordered reference sweep (ordered_test.go). PolicyHalfCovers and
// PolicyOrderedCovers are their policy-routing counterparts.
func HalfCovers(g *graph.Graph, opts Options) ([]float64, [][]int32) {
	return routeCovers(g.NumNodes(), g.NumEdges(), opts, func(o *Options, s []int32, q []bool) ([]*edgeStream, func()) {
		return sweepPlain(g, o, s, q)
	}, edgeCover)
}

func OrderedCovers(g *graph.Graph, opts Options) ([]float64, [][]int32) {
	return routeCovers(g.NumNodes(), g.NumEdges(), opts, func(o *Options, s []int32, q []bool) ([]*edgeStream, func()) {
		return sweepOrdered(g, o, s, q)
	}, edgeCoverOrdered)
}

func PolicyHalfCovers(a *policy.Annotated, opts Options) ([]float64, [][]int32) {
	return routeCovers(a.G.NumNodes(), a.G.NumEdges(), opts, func(o *Options, s []int32, q []bool) ([]*edgeStream, func()) {
		return sweepPolicy(a, o, s, q)
	}, edgeCover)
}

func PolicyOrderedCovers(a *policy.Annotated, opts Options) ([]float64, [][]int32) {
	return routeCovers(a.G.NumNodes(), a.G.NumEdges(), opts, func(o *Options, s []int32, q []bool) ([]*edgeStream, func()) {
		return sweepPolicyOrdered(a, o, s, q)
	}, edgeCoverOrdered)
}
