package hierarchy

import (
	"topocmp/internal/graph"
)

// TraversalSetSizes computes, for every edge, the number of distinct node
// pairs whose shortest-path traffic crosses it (each unordered pair counted
// once per direction swept). The paper rejects this "most natural measure"
// of hierarchy because access links score N-1 — near the top — even though
// removing a single node voids their whole set; TestAccessLinkParadox
// demonstrates exactly that, and the weighted vertex cover of LinkValues is
// the fix. Exposed for completeness and for that demonstration.
//
// It runs LinkValues' sweep and counts each edge's entries. A plain
// shortest-path DAG crosses an edge in at most one arc, and the sweep emits
// each DAG arc once per (source, target) pair, so an edge's entry count is
// exactly its number of distinct pairs.
func TraversalSetSizes(g *graph.Graph, opts Options) []int {
	opts.defaults()
	sources, inQ := sampleSources(g.NumNodes(), opts)
	streams, release := sweepPlain(g, &opts, sources, inQ)
	defer release()
	counts := make([]int, g.NumEdges())
	var segs [][]pairEntry
	for _, es := range streams {
		for b := range es.heads {
			segs = es.segments(b, segs[:0])
			for _, seg := range segs {
				for i := range seg {
					counts[seg[i].edge]++
				}
			}
		}
	}
	return counts
}
