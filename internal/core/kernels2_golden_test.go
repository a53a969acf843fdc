package core

import (
	"math/rand"
	"reflect"
	"testing"

	"topocmp/internal/bgp"
	"topocmp/internal/graph"
	"topocmp/internal/policy"
	"topocmp/internal/stats"
	"topocmp/internal/traceroute"
)

// scalarCoverageCurve is the historical bgp.CoverageCurve implementation:
// every destination's full selected path is enumerated and its edges
// unioned through a map. Kept verbatim as the reference for the stamped
// parent-chain walk.
func scalarCoverageCurve(a *policy.Annotated, vantages []int32) stats.Series {
	truthEdges := a.G.NumEdges()
	s := stats.Series{Name: "coverage"}
	if truthEdges == 0 {
		return s
	}
	covered := map[uint64]bool{}
	n := int32(a.G.NumNodes())
	for i, vp := range vantages {
		pt := a.PathsInto(nil, vp)
		for dst := int32(0); dst < n; dst++ {
			if dst == vp {
				continue
			}
			path := pt.Path(dst)
			for j := 0; j+1 < len(path); j++ {
				u, v := path[j], path[j+1]
				if u > v {
					u, v = v, u
				}
				covered[uint64(u)<<32|uint64(uint32(v))] = true
			}
		}
		s.Add(float64(i+1), float64(len(covered))/float64(truthEdges))
	}
	return s
}

// TestCoverageGoldenScalarVsStamped byte-compares the stamped parent-chain
// coverage curve against the historical per-path scalar union, on the
// measured AS truth and on every paper network carrying policy annotations.
func TestCoverageGoldenScalarVsStamped(t *testing.T) {
	opts := PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := BuildMeasured(opts)
	cases := []*policy.Annotated{ms.TruthAS.Annotated}
	if ms.AS.Policy != nil {
		cases = append(cases, ms.AS.Policy)
	}
	for ci, a := range cases {
		vantages := bgp.PickVantages(a.G, 10, rand.New(rand.NewSource(3)))
		want := scalarCoverageCurve(a, vantages)
		got := bgp.CoverageCurve(a, vantages)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: stamped coverage curve differs from scalar union", ci)
		}
	}
}

// TestTracerouteSweepDeterministic pins the path-buffer reuse in the
// traceroute sweep: two sweeps with identical inputs must produce the same
// discovered graph and origin mapping (pseudo-node numbering depends on the
// walk order, so any state leaking through the reused path buffer would
// show up here).
func TestTracerouteSweepDeterministic(t *testing.T) {
	opts := PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := BuildMeasured(opts)
	run := func() (*graph.Graph, []int32) {
		return traceroute.Sweep(ms.TruthRL.Overlay, ms.TruthRL.Backbone,
			traceroute.Options{
				Sources: 8, DestFraction: 0.5, Rand: rand.New(rand.NewSource(9)),
			})
	}
	g1, o1 := run()
	g2, o2 := run()
	if g1.NumNodes() != g2.NumNodes() || !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
		t.Fatal("repeated traceroute sweeps produced different graphs")
	}
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("repeated traceroute sweeps produced different origin maps")
	}
}
