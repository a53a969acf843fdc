package hierarchy

import (
	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// PolicyLinkValues computes link values with pairs routed over shortest
// valley-free (policy) paths instead of plain shortest paths, as the paper
// does for the AS and RL graphs ("with policy routing, since paths are more
// concentrated, the highest link values are larger").
//
// It runs on the same sweep, streams and cover as LinkValues, over
// ordered pairs: valley-free routes need not be symmetric, so the pair
// (t, u) may cross other edges, or the same ones with other fractions. Each
// source's rows come from one product BFS (policy.ProductCountsInto).
func PolicyLinkValues(a *policy.Annotated, opts Options) *Result {
	opts.defaults()
	g := a.G
	n, m := g.NumNodes(), g.NumEdges()
	ix := graph.NewEdgeIndex(g)
	sources, inQ := sampleSources(n, opts)
	opts.Metrics.Counter("hierarchy.policy_sweeps").Add(int64(len(sources)))

	ns := policy.NumStates
	rp := func(ws *sweepScratch, u int32) ([]int32, []float64, *graph.BFSScratch) {
		ws.pdist, ws.psigma, ws.porder = a.ProductCountsInto(ws.pdist, ws.psigma, ws.porder, u)
		return ws.pdist, ws.psigma, nil
	}
	// Per-node policy distance = min over states. The product rows are
	// fully initialized by the buffers' Unreached-reset invariant, so the
	// state scan reads them raw.
	visit := func(ws *sweepScratch, es *edgeStream, u int32, dist []int32, sigma []float64, _ *graph.BFSScratch) {
		ws.gval = grownZero(ws.gval, n*ns)
		ws.localW = grownZero(ws.localW, m)
		for t := int32(0); t < int32(n); t++ {
			if t == u || !inQ[t] {
				continue
			}
			pdist := graph.Unreached
			for s := 0; s < ns; s++ {
				if d := dist[int(t)*ns+s]; d < pdist {
					pdist = d
				}
			}
			if pdist == graph.Unreached || pdist == 0 {
				continue
			}
			sweepPolicyTarget(a, u, t, int(pdist), dist, sigma, ix, ws, es)
		}
	}
	streams, release := sweep(&opts, sources, m, false, rp, visit)
	defer release()
	values := coverValuesStream(m, n, streams, false)
	return &Result{Edges: g.Edges(), Values: values, N: len(sources), Nodes: n}
}

// sweepPolicyTarget walks the product-space shortest-path ancestor DAG of
// target t, distributing path fractions over the optimal arrival states and
// aggregating per underlying edge (a product sweep can cross the same graph
// edge in several states). The per-edge aggregation runs on the leased
// scratch's dense accumulators (localW, reset through localE) instead of a
// per-target map, and each touched edge's aggregate becomes one entry of
// es.
func sweepPolicyTarget(a *policy.Annotated, u, t int32, pdist int,
	dist []int32, sigma []float64, ix *graph.EdgeIndex,
	ws *sweepScratch, es *edgeStream) {

	g := a.G
	ns := policy.NumStates
	for len(ws.buckets) <= pdist {
		ws.buckets = append(ws.buckets, nil)
	}
	bs := ws.buckets
	for d := 0; d <= pdist; d++ {
		bs[d] = bs[d][:0]
	}
	ws.touched = ws.touched[:0]
	ws.localE = ws.localE[:0]
	// Seed the optimal arrival states proportionally to their path counts.
	totalSigma := 0.0
	for s := 0; s < ns; s++ {
		st := int(t)*ns + s
		if int(dist[st]) == pdist {
			totalSigma += sigma[st]
		}
	}
	if totalSigma == 0 {
		return
	}
	for s := 0; s < ns; s++ {
		st := int(t)*ns + s
		if int(dist[st]) == pdist && sigma[st] > 0 {
			ws.gval[st] = sigma[st] / totalSigma
			ws.touched = append(ws.touched, int32(st))
			bs[pdist] = append(bs[pdist], int32(st))
		}
	}
	for d := pdist; d >= 1; d-- {
		for _, stRaw := range bs[d] {
			st := int(stRaw)
			b := int32(st / ns)
			sb := st % ns
			gb := ws.gval[st]
			for _, av := range g.Neighbors(b) {
				// Predecessor states (av, sa) with a valid transition into sb.
				for sa := 0; sa < ns; sa++ {
					sat := int(av)*ns + sa
					if dist[sat] != int32(d-1) || sigma[sat] == 0 {
						continue
					}
					if a.Transition(av, b, sa) != sb {
						continue
					}
					frac := gb * sigma[sat] / sigma[st]
					id := uint32(ix.ID(av, b))
					if ws.localW[id] == 0 {
						ws.localE = append(ws.localE, id)
					}
					ws.localW[id] += frac
					if ws.gval[sat] == 0 {
						ws.touched = append(ws.touched, int32(sat))
						if d-1 >= 1 {
							bs[d-1] = append(bs[d-1], int32(sat))
						}
					}
					ws.gval[sat] += frac
				}
			}
		}
	}
	for _, st := range ws.touched {
		ws.gval[st] = 0
	}
	for _, e := range ws.localE {
		es.add(pairEntry{edge: e, u: u, t: t, w: ws.localW[e]})
		ws.localW[e] = 0
	}
}
