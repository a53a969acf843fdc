package hierarchy

import (
	"cmp"
	"slices"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// sweepOrdered is the ordered plain sweep LinkValues ran before it swept
// unordered pairs: per source u, every sampled target t ≠ u, so each pair's
// shortest-path DAG is emitted twice, the reverse copy with fractions
// computed from the other endpoint's rows. It survives as the reference the
// half route must agree with.
func sweepOrdered(g *graph.Graph, opts *Options, sources []int32, inQ []bool) ([]*edgeStream, func()) {
	n, m := g.NumNodes(), g.NumEdges()
	off, adj := g.CSR()
	arcIDs := graph.NewEdgeIndex(g).ArcIDs()
	visit := func(ws *sweepScratch, u int32) {
		ws.bfs.Counts(g, u)
		dist, sigma := ws.bfs.Rows()
		ws.gval = grownZero(ws.gval, n)
		ws.beginPreds(n, m)
		fs := newFastSweep(off, adj, arcIDs, dist, sigma, ws)
		for t := int32(0); t < int32(n); t++ {
			if t == u || !inQ[t] {
				continue
			}
			if d := ws.bfs.Dist(t); d > 0 && d != graph.Unreached {
				sweepTargetStream(u, t, int(d), fs, ws, ws.stream)
			}
		}
	}
	return sweep(opts, sources, m, visit)
}

// sweepPolicyOrdered is the ordered policy sweep PolicyLinkValues ran
// before it swept unordered pairs, on the claim that valley-free routes
// need not be symmetric: per source u, every sampled target t ≠ u. It
// survives as the reference the half route must agree with.
func sweepPolicyOrdered(a *policy.Annotated, opts *Options, sources []int32, inQ []bool) ([]*edgeStream, func()) {
	n, m := a.G.NumNodes(), a.G.NumEdges()
	off, _ := a.G.CSR()
	arcIDs := graph.NewEdgeIndex(a.G).ArcIDs()
	ns := policy.NumStates
	visit := func(ws *sweepScratch, u int32) {
		ws.tree = a.PathsInto(ws.tree, u)
		var dist []int32
		dist, ws.sigma = ws.tree.CountsInto(ws.sigma)
		ws.gval = grownZero(ws.gval, n*ns)
		ws.localW = grownZero(ws.localW, m)
		ws.beginPreds(n*ns, 2*m*ns)
		pp := &policyPreds{a: a, off: off, arcIDs: arcIDs, dist: dist, sigma: ws.sigma}
		for t := int32(0); t < int32(n); t++ {
			if t == u || !inQ[t] {
				continue
			}
			if d := ws.tree.Dist(t); d > 0 && d != graph.Unreached {
				sweepPolicyTarget(pp, u, t, int(d), ws, ws.stream)
			}
		}
	}
	return sweep(opts, sources, m, visit)
}

// edgeCoverOrdered is the cover over an ordered stream, which holds each
// pair twice, as (u, t) and (t, u): every entry folds into both of its
// nodes' weights, in canonical order. edgeCover replays this fold from the
// half stream.
func edgeCoverOrdered(pairs []coverEntry, ws *coverScratch) float64 {
	nodes := ws.nodes[:0]
	for _, p := range pairs {
		nodes = ws.add(nodes, p.u, p.w)
		nodes = ws.add(nodes, p.t, p.w)
	}
	return ws.cover(pairs, nodes)
}

// pairEntry is one (source, target) pair crossing an edge with the fraction
// of its shortest paths that do so: a stream entry with its pair spelled
// out, the record the tests compare and sort.
type pairEntry struct {
	edge uint32
	u, t int32
	w    float64
}

// streamEntries collects every entry of the streams, in stream order, each
// pair read from its stream's pair table.
func streamEntries(streams []*edgeStream) []pairEntry {
	var out []pairEntry
	var segs []segment
	for _, es := range streams {
		for b := range es.heads {
			for _, seg := range es.segments(b, segs[:0]) {
				for _, p := range seg.entries {
					pr := seg.pairs[p.pair]
					out = append(out, pairEntry{edge: p.edge, u: pr.u, t: pr.t, w: p.w})
				}
			}
		}
	}
	return out
}

// coversOf sorts entries into the canonical (edge, u, t) order and covers
// each edge's group with cover (edgeCover for a half stream,
// edgeCoverOrdered for an ordered one), returning every edge's value and
// final cover set.
func coversOf(entries []pairEntry, numEdges, numNodes int,
	cover func([]coverEntry, *coverScratch) float64) ([]float64, [][]int32) {
	slices.SortFunc(entries, func(x, y pairEntry) int {
		return cmp.Or(cmp.Compare(x.edge, y.edge), cmp.Compare(x.u, y.u), cmp.Compare(x.t, y.t))
	})
	ws := &coverScratch{}
	ws.ensure(numNodes)
	values := make([]float64, numEdges)
	covers := make([][]int32, numEdges)
	var group []coverEntry
	for lo := 0; lo < len(entries); {
		e := entries[lo].edge
		group = group[:0]
		for ; lo < len(entries) && entries[lo].edge == e; lo++ {
			group = append(group, coverEntry{u: entries[lo].u, t: entries[lo].t, w: entries[lo].w})
		}
		values[e] = cover(group, ws)
		covers[e] = slices.Clone(ws.coverOrder)
		slices.Sort(covers[e])
	}
	return values, covers
}

// routeSweep is one route's sweep over a fixed graph.
type routeSweep func(opts *Options, sources []int32, inQ []bool) ([]*edgeStream, func())

// routeCovers runs one route's sweep over a graph of n nodes and m edges,
// covers its entries with cover, and returns every edge's value and cover
// set.
func routeCovers(n, m int, opts Options, sw routeSweep,
	cover func([]coverEntry, *coverScratch) float64) ([]float64, [][]int32) {
	opts.defaults()
	sources, inQ := sampleSources(n, opts)
	streams, release := sw(&opts, sources, inQ)
	defer release()
	return coversOf(streamEntries(streams), m, n, cover)
}

// TestWorkerBlocksBalancePairs checks how sweep splits its sources:
// contiguous blocks covering every source, each within one source's pairs
// of an equal share.
func TestWorkerBlocksBalancePairs(t *testing.T) {
	for _, q := range []int{1, 2, 3, 7, 64, 383, 384, 1000} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			if workers > q {
				continue
			}
			srcPairs := make([]int64, q)
			var total, maxSrc int64
			for r := 0; r < q; r++ {
				p := int64(q - 1 - r)
				srcPairs[r] = p
				total += p
				maxSrc = max(maxSrc, p)
			}
			b := workerBlocks(q, workers)
			if len(b) != workers+1 || b[0] != 0 || b[workers] != q {
				t.Fatalf("q=%d workers=%d: blocks %v", q, workers, b)
			}
			for w := 0; w < workers; w++ {
				if b[w] > b[w+1] {
					t.Fatalf("q=%d workers=%d: blocks %v not ascending", q, workers, b)
				}
				var pairs int64
				for _, p := range srcPairs[b[w]:b[w+1]] {
					pairs += p
				}
				if d := pairs*int64(workers) - total; d > maxSrc*int64(workers) || -d > maxSrc*int64(workers) {
					t.Errorf("q=%d workers=%d: worker %d sweeps %d pairs, share %d/%d, source %d",
						q, workers, w, pairs, total, workers, maxSrc)
				}
			}
		}
	}
}
