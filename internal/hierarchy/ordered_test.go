package hierarchy

import (
	"cmp"
	"slices"
	"testing"

	"topocmp/internal/graph"
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
	return sweep(opts, sources, m, false, visit)
}

// streamEntries collects every entry of the streams, in stream order.
func streamEntries(streams []*edgeStream) []pairEntry {
	var out []pairEntry
	var segs [][]pairEntry
	for _, es := range streams {
		for b := range es.heads {
			for _, seg := range es.segments(b, segs[:0]) {
				out = append(out, seg...)
			}
		}
	}
	return out
}

// coversOf sorts entries into the canonical (edge, u, t) order and covers
// each edge's group, returning every edge's value and final cover set.
func coversOf(entries []pairEntry, numEdges, numNodes int, half bool) ([]float64, [][]int32) {
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
		values[e] = edgeCover(group, ws, half)
		covers[e] = slices.Clone(ws.coverOrder)
		slices.Sort(covers[e])
	}
	return values, covers
}

// routeCovers runs one route's sweep — sw, with its entries covered as
// half says — and returns every edge's value and cover set.
func routeCovers(g *graph.Graph, opts Options, half bool,
	sw func(*graph.Graph, *Options, []int32, []bool) ([]*edgeStream, func())) ([]float64, [][]int32) {
	opts.defaults()
	sources, inQ := sampleSources(g.NumNodes(), opts)
	streams, release := sw(g, &opts, sources, inQ)
	defer release()
	return coversOf(streamEntries(streams), g.NumEdges(), g.NumNodes(), half)
}

// TestWorkerBlocksBalancePairs checks how sweep splits its sources:
// contiguous blocks covering every source, each within one source's pairs
// of an equal share, on both routes.
func TestWorkerBlocksBalancePairs(t *testing.T) {
	for _, q := range []int{1, 2, 3, 7, 64, 383, 384, 1000} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			if workers > q {
				continue
			}
			for _, half := range []bool{true, false} {
				srcPairs := make([]int64, q)
				var total, maxSrc int64
				for r := 0; r < q; r++ {
					p := int64(q - 1)
					if half {
						p = int64(q - 1 - r)
					}
					srcPairs[r] = p
					total += p
					maxSrc = max(maxSrc, p)
				}
				b := workerBlocks(q, workers, half)
				if len(b) != workers+1 || b[0] != 0 || b[workers] != q {
					t.Fatalf("q=%d workers=%d half=%v: blocks %v", q, workers, half, b)
				}
				for w := 0; w < workers; w++ {
					if b[w] > b[w+1] {
						t.Fatalf("q=%d workers=%d half=%v: blocks %v not ascending", q, workers, half, b)
					}
					var pairs int64
					for _, p := range srcPairs[b[w]:b[w+1]] {
						pairs += p
					}
					if d := pairs*int64(workers) - total; d > maxSrc*int64(workers) || -d > maxSrc*int64(workers) {
						t.Errorf("q=%d workers=%d half=%v: worker %d sweeps %d pairs, share %d/%d, source %d",
							q, workers, half, w, pairs, total, workers, maxSrc)
					}
				}
			}
		}
	}
}
