package traceroute

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/internetsim"
	"topocmp/internal/policy"
	"topocmp/internal/rng"
)

// sweepPerHop is the historical Sweep, kept as the reference for the
// suffix-only walk: every destination's full path is materialized and every
// hop looks its (router, predecessor) interface up in one map and adds its
// edge, however many earlier paths already covered it.
func sweepPerHop(overlay *policy.RouterOverlay, backbone []bool, opts Options) (*graph.Graph, []int32) {
	opts.defaults()
	n := overlay.RL.NumNodes()
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
	numDst := int(opts.DestFraction * float64(n))
	if numDst < 1 {
		numDst = 1
	}
	dsts := rng.SampleInts(opts.Rand, n, numDst)

	failed := make([]bool, n)
	if opts.AliasFailure > 0 {
		for v := range failed {
			failed[v] = opts.Rand.Float64() < opts.AliasFailure
		}
	}
	type ifaceKey struct{ router, from int32 }
	index := map[ifaceKey]int32{}
	var orig []int32
	id := func(router, from int32) int32 {
		key := ifaceKey{router, -1}
		if failed[router] {
			key.from = from
		}
		if i, ok := index[key]; ok {
			return i
		}
		i := int32(len(orig))
		index[key] = i
		orig = append(orig, router)
		return i
	}

	b := graph.NewStreamBuilder(0)
	var pt *policy.PathTree
	for _, si := range srcIdx {
		src := backboneIDs[si]
		pt = overlay.PathsInto(pt, src)
		for _, di := range dsts {
			dst := int32(di)
			if dst == src {
				continue
			}
			path := pt.Path(dst)
			if len(path) < 2 {
				continue
			}
			prevID := id(path[0], -1)
			for i := 1; i < len(path); i++ {
				curID := id(path[i], path[i-1])
				b.EnsureNodes(len(orig))
				b.AddEdge(prevID, curID)
				prevID = curID
			}
		}
	}
	b.EnsureNodes(len(orig))
	return b.Graph(), orig
}

// checkSweepMatchesPerHop sweeps one router truth with Sweep and the
// per-hop reference from the same seed and requires the same RL graph, the
// same pseudo-node → router map and the same RNG position afterwards.
func checkSweepMatchesPerHop(t *testing.T, rl *internetsim.RouterLevel, backbone []bool, seed int64, opts Options) {
	t.Helper()
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	o1, o2 := opts, opts
	o1.Rand, o2.Rand = r1, r2
	g, orig := Sweep(rl.Overlay, backbone, o1)
	wg, worig := sweepPerHop(rl.Overlay, backbone, o2)
	if g.Fingerprint() != wg.Fingerprint() {
		t.Fatalf("%+v: RL graph differs from the per-hop reference (%d/%d nodes, %d/%d edges)",
			opts, g.NumNodes(), wg.NumNodes(), g.NumEdges(), wg.NumEdges())
	}
	if !slices.Equal(orig, worig) {
		t.Fatalf("%+v: orig differs from the per-hop reference", opts)
	}
	if r1.Int63() != r2.Int63() {
		t.Fatalf("%+v: RNG streams diverged after the sweep", opts)
	}
}

func TestSweepMatchesPerHop(t *testing.T) {
	rl := testRouterLevel(t, 700, 21)
	for _, alias := range []float64{0, 0.2, 1} {
		checkSweepMatchesPerHop(t, rl, rl.Backbone, 22, Options{Sources: 8, DestFraction: 0.5, AliasFailure: alias})
	}
	checkSweepMatchesPerHop(t, rl, nil, 23, Options{Sources: 3, DestFraction: 1})
}

// FuzzSweepMatchesPerHop draws small random AS and router truths and sweep
// options and checks the suffix-only walk against the per-hop reference.
func FuzzSweepMatchesPerHop(f *testing.F) {
	f.Add(int64(1), uint8(60), uint8(0), uint8(0), uint8(6), uint8(128), uint8(0), false)
	f.Add(int64(2), uint8(5), uint8(200), uint8(100), uint8(12), uint8(255), uint8(255), true)
	f.Add(int64(3), uint8(150), uint8(40), uint8(230), uint8(1), uint8(10), uint8(60), false)
	f.Fuzz(func(t *testing.T, seed int64, numAS, perDegree, access, sources, dest, alias uint8, noBackbone bool) {
		r := rand.New(rand.NewSource(seed))
		as, err := internetsim.GenerateAS(r, internetsim.ASParams{NumAS: 3 + int(numAS%160), NumTier1: 2})
		if err != nil {
			t.Fatal(err)
		}
		rl, err := internetsim.GenerateRouters(r, as, internetsim.RouterParams{
			RoutersPerDegree: float64(perDegree) / 64,
			MaxRouters:       40,
			AccessFraction:   float64(access) / 256,
		})
		if err != nil {
			t.Fatal(err)
		}
		backbone := rl.Backbone
		if noBackbone {
			backbone = nil
		}
		checkSweepMatchesPerHop(t, rl, backbone, seed+1, Options{
			Sources:      int(sources % 13),
			DestFraction: float64(dest) / 255,
			AliasFailure: float64(alias) / 255,
		})
	})
}
