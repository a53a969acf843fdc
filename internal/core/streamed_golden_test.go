package core

import (
	"math/rand"
	"testing"

	"topocmp/internal/graph"
)

// TestStreamedBuilderGoldenPaperFamilies pins the streamed CSR freeze on
// every paper network family: the edge multiset of each built network —
// scrambled, endpoint-flipped and partially duplicated to stress the
// freeze's sort/dedup path — must rebuild into a CSR byte-identical to the
// original graph (compared via fingerprints, plus the node/edge counts).
func TestStreamedBuilderGoldenPaperFamilies(t *testing.T) {
	opts := PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := BuildMeasured(opts)
	nets := []*Network{ms.AS, ms.RL}
	for _, name := range append(append([]string{}, GeneratedNetworkNames...), CanonicalNetworkNames...) {
		nets = append(nets, BuildNetwork(name, opts))
	}
	r := rand.New(rand.NewSource(99))
	for _, n := range nets {
		g := n.Graph
		edges := g.Edges()
		// Scramble edge order, flip endpoints, and duplicate ~25% of edges.
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		feed := make([]graph.Edge, 0, len(edges)*5/4)
		for _, e := range edges {
			if r.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			feed = append(feed, e)
			if r.Intn(4) == 0 {
				feed = append(feed, graph.Edge{U: e.V, V: e.U})
			}
		}
		sb := graph.NewStreamBuilder(g.NumNodes())
		for _, e := range feed {
			sb.AddEdge(e.U, e.V)
		}
		sg := sb.Graph()
		if sg.Fingerprint() != g.Fingerprint() {
			t.Errorf("%s: rebuilt CSR differs from the original graph", n.Name)
		}
		if sg.NumNodes() != g.NumNodes() || sg.NumEdges() != g.NumEdges() {
			t.Errorf("%s: rebuilt %d nodes / %d edges, original %d / %d",
				n.Name, sg.NumNodes(), sg.NumEdges(), g.NumNodes(), g.NumEdges())
		}
	}
}
