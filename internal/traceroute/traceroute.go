// Package traceroute simulates the router-level topology discovery behind
// the paper's RL graph (the SCAN/Mercator map): traceroute-style probes
// from a handful of sources toward sampled destinations reveal the routers
// and adjacencies on the traversed policy paths; the measured RL graph is
// assembled from those adjacencies. As with the real map, links and routers
// off the observed paths are missing, and the resulting graph is dominated
// by the degree-1 access routers that terminate probes.
package traceroute

import (
	"math/rand"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
	"topocmp/internal/rng"
)

// Options configures the sweep.
type Options struct {
	// Sources is the number of probe sources (SCAN used a small set).
	Sources int
	// DestFraction is the share of routers probed as destinations,
	// modeling coverage of the address space; default 0.5.
	DestFraction float64
	// AliasFailure is the probability that a router's interfaces fail to
	// be merged by alias resolution (Mercator/SCAN's hardest problem):
	// such a router appears once per incident observed link direction,
	// splitting it into per-interface pseudo-nodes. This inflates the node
	// count and deflates degrees, exactly the artifact real maps carry.
	// Zero disables the effect.
	AliasFailure float64
	// Rand drives source and destination sampling.
	Rand *rand.Rand
}

func (o *Options) defaults() {
	if o.Sources == 0 {
		o.Sources = 6
	}
	if o.DestFraction == 0 {
		o.DestFraction = 0.5
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
}

// Sweep runs the simulated traceroute campaign over a router-level overlay
// and returns the inferred RL graph plus orig[newID] = router id in the
// ground-truth graph.
func Sweep(overlay *policy.RouterOverlay, backbone []bool, opts Options) (*graph.Graph, []int32) {
	opts.defaults()
	n := overlay.RL.NumNodes()

	// Sources: prefer backbone routers (measurement boxes sit in well
	// connected networks).
	var backboneIDs []int32
	for v := int32(0); v < int32(n); v++ {
		if backbone == nil || backbone[v] {
			backboneIDs = append(backboneIDs, v)
		}
	}
	numSrc := opts.Sources
	if numSrc > len(backboneIDs) {
		numSrc = len(backboneIDs)
	}
	srcIdx := rng.SampleInts(opts.Rand, len(backboneIDs), numSrc)
	// Destinations: a random slice of the router space.
	numDst := int(opts.DestFraction * float64(n))
	if numDst < 1 {
		numDst = 1
	}
	dsts := rng.SampleInts(opts.Rand, n, numDst)

	// Alias-resolution failures are drawn once per ground-truth router: a
	// failed router appears as one pseudo-node per (router, entering
	// neighbor) interface. Merged routers keep one id each in a dense array;
	// only failed ones go through the interface map.
	failed := make([]bool, n)
	if opts.AliasFailure > 0 {
		for v := range failed {
			failed[v] = opts.Rand.Float64() < opts.AliasFailure
		}
	}
	routerID := make([]int32, n)
	for i := range routerID {
		routerID[i] = -1
	}
	type ifaceKey struct{ router, from int32 }
	ifaceID := map[ifaceKey]int32{}
	var orig []int32
	id := func(router, from int32) int32 {
		if !failed[router] {
			if routerID[router] < 0 {
				routerID[router] = int32(len(orig))
				orig = append(orig, router)
			}
			return routerID[router]
		}
		key := ifaceKey{router, from}
		i, ok := ifaceID[key]
		if !ok {
			i = int32(len(orig))
			ifaceID[key] = i
			orig = append(orig, router)
		}
		return i
	}

	// Traceroute reveals each hop's incoming interface, so a hop's
	// pseudo-node is keyed by its predecessor, which its product state
	// determines: stateID caches the id of every product state the current
	// source has covered. A source's selected paths form a tree in product
	// space, so each destination walks only the suffix no earlier
	// destination covered; the skipped prefix hops would find existing ids
	// and re-add existing edges, so ids are minted in the same order as a
	// walk over every full path and the edge set is the same. Observed
	// adjacencies stream into the builder and are deduplicated at freeze.
	b := graph.NewStreamBuilder(0)
	var pt *policy.PathTree
	var stamp graph.Stamp
	stateID := make([]int32, n*policy.NumStates)
	var suffix []int32
	for _, si := range srcIdx {
		src := backboneIDs[si]
		pt = overlay.PathsInto(pt, src)
		stamp.Begin(pt.NumProductStates())
		for _, di := range dsts {
			dst := int32(di)
			if dst == src {
				continue
			}
			var prev int32
			suffix, prev = pt.NewSuffix(suffix, &stamp, dst)
			for _, st := range suffix {
				router := st / policy.NumStates
				if prev < 0 { // the source itself
					stateID[st] = id(router, -1)
				} else {
					stateID[st] = id(router, prev/policy.NumStates)
					b.EnsureNodes(len(orig))
					b.AddEdge(stateID[prev], stateID[st])
				}
				prev = st
			}
		}
	}
	b.EnsureNodes(len(orig))
	return b.Graph(), orig
}
