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
// unordered pairs. Reversing a valley-free path swaps its provider and
// customer hops and keeps its peer and sibling hops, so the reverse of
// every shortest valley-free path from u to t is one from t to u: the pair
// (t, u) crosses the same edges with the same fractions, and the cover
// replays its weights from the (u, t) copy (edgeCover).
func PolicyLinkValues(a *policy.Annotated, opts Options) *Result {
	opts.defaults()
	n, m := a.G.NumNodes(), a.G.NumEdges()
	sources, inQ := sampleSources(n, opts)
	opts.Metrics.Counter("hierarchy.policy_sweeps").Add(int64(len(sources)))
	streams, release := sweepPolicy(a, &opts, sources, inQ)
	defer release()
	values := coverValuesStream(m, n, streams, &opts)
	return &Result{Edges: a.G.Edges(), Values: values, N: len(sources), Nodes: n}
}

// sweepPolicy runs PolicyLinkValues' sweep: per source u, one path tree and
// its path counts (policy.PathTree.CountsInto), then the product-space
// ancestor DAG of every sampled target t > u, in ascending target order. A
// product state has at most one predecessor per (arc into it, predecessor
// state), so 2m·NumStates bounds a source's predecessor lists.
func sweepPolicy(a *policy.Annotated, opts *Options, sources []int32, inQ []bool) ([]*edgeStream, func()) {
	n, m := a.G.NumNodes(), a.G.NumEdges()
	off, _ := a.G.CSR()
	arcIDs := graph.NewEdgeIndex(a.G).ArcIDs() // shared, read-only across workers
	ns := policy.NumStates
	visit := func(ws *sweepScratch, u int32) {
		ws.tree = a.PathsInto(ws.tree, u)
		var dist []int32
		dist, ws.sigma = ws.tree.CountsInto(ws.sigma)
		ws.gval = grownZero(ws.gval, n*ns)
		ws.localW = grownZero(ws.localW, m)
		ws.beginPreds(n*ns, 2*m*ns)
		pp := &policyPreds{a: a, off: off, arcIDs: arcIDs, dist: dist, sigma: ws.sigma}
		for t := u + 1; t < int32(n); t++ {
			if !inQ[t] {
				continue
			}
			if d := ws.tree.Dist(t); d > 0 && d != graph.Unreached {
				sweepPolicyTarget(pp, u, t, int(d), ws, ws.stream)
			}
		}
	}
	return sweep(opts, sources, m, visit)
}

// policyPreds bundles one source's inputs to the product-space predecessor
// lists: the annotated graph, its CSR offsets and arc-id table, and the
// source's product distance and path-count rows.
type policyPreds struct {
	a      *policy.Annotated
	off    []int32
	arcIDs []uint32
	dist   []int32
	sigma  []float64
}

// build lists product state st's predecessors on the source's shortest
// product paths, (predecessor state, edge id) pairs, in b's adjacency order
// and then state order, as ws.predAdj/predEdge[predLo[st]:predHi[st]]. Like
// sweepPlain's buildPreds it runs on a state's first touch per source, so
// later targets read the list instead of rescanning b's adjacency in every
// state, and the list order keeps every target's accumulation order.
func (pp *policyPreds) build(st int32, ws *sweepScratch) {
	ns := int32(policy.NumStates)
	b, sb := st/ns, int(st%ns)
	want := pp.dist[st] - 1
	base := pp.off[b]
	k := ws.predN
	for i, av := range pp.a.G.Neighbors(b) {
		for sa := int32(0); sa < ns; sa++ {
			sat := av*ns + sa
			if pp.dist[sat] != want || pp.sigma[sat] == 0 {
				continue
			}
			if pp.a.Transition(av, b, int(sa)) != sb {
				continue
			}
			ws.predAdj[k] = sat
			ws.predEdge[k] = pp.arcIDs[base+int32(i)]
			k++
		}
	}
	ws.predLo[st], ws.predHi[st] = ws.predN, k
	ws.predN = k
}

// sweepPolicyTarget walks the product-space shortest-path ancestor DAG of
// target t, distributing path fractions over the optimal arrival states and
// aggregating per underlying edge (a product sweep can cross the same graph
// edge in several states). Each state's predecessors come from the
// source's memoized lists (policyPreds.build). The per-edge aggregation
// runs on the leased scratch's dense accumulators (localW, reset through
// localE) instead of a per-target map, and each touched edge's aggregate
// becomes one entry of es, once the pair is in es's pair table.
func sweepPolicyTarget(pp *policyPreds, u, t int32, pdist int, ws *sweepScratch, es *edgeStream) {
	dist, sigma := pp.dist, pp.sigma
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
		for _, st := range bs[d] {
			gb := ws.gval[st]
			if ws.pstamp.Visit(st) {
				pp.build(st, ws)
			}
			for i := ws.predLo[st]; i < ws.predHi[st]; i++ {
				sat := ws.predAdj[i]
				frac := gb * sigma[sat] / sigma[st]
				id := ws.predEdge[i]
				if ws.localW[id] == 0 {
					ws.localE = append(ws.localE, id)
				}
				ws.localW[id] += frac
				if ws.gval[sat] == 0 {
					ws.touched = append(ws.touched, sat)
					if d-1 >= 1 {
						bs[d-1] = append(bs[d-1], sat)
					}
				}
				ws.gval[sat] += frac
			}
		}
	}
	for _, st := range ws.touched {
		ws.gval[st] = 0
	}
	pair := es.addPair(u, t)
	for _, e := range ws.localE {
		es.add(streamEntry{edge: e, pair: pair, w: ws.localW[e]})
		ws.localW[e] = 0
	}
}
