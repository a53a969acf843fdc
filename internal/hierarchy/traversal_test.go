package hierarchy

import (
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// TraversalSetSizes computes, for every edge, the number of distinct node
// pairs whose shortest-path traffic crosses it, each unordered pair counted
// once per direction. The paper rejects this "most natural measure" of
// hierarchy because access links score N-1 — near the top — even though
// removing a single node voids their whole set; TestAccessLinkParadox
// demonstrates exactly that, and the weighted vertex cover of LinkValues is
// the fix. It lives in the tests for that demonstration and as a second
// reading of the sweep's entries.
//
// It runs LinkValues' sweep over unordered pairs and counts each edge's
// entries twice. A plain shortest-path DAG crosses an edge in at most one
// arc, and the sweep emits each DAG arc once per pair, so an edge's entry
// count is exactly its number of distinct unordered pairs; the pair (t, u)
// crosses the same edges as (u, t).
func TraversalSetSizes(g *graph.Graph, opts Options) []int {
	opts.defaults()
	sources, inQ := sampleSources(g.NumNodes(), opts)
	streams, release := sweepPlain(g, &opts, sources, inQ)
	defer release()
	counts := make([]int, g.NumEdges())
	var segs []segment
	for _, es := range streams {
		for b := range es.heads {
			segs = es.segments(b, segs[:0])
			for _, seg := range segs {
				for _, p := range seg.entries {
					counts[p.edge] += 2
				}
			}
		}
	}
	return counts
}

// TestAccessLinkParadox reproduces the paper's §5 argument for preferring
// the weighted vertex cover over the raw traversal-set size: an access link
// participates in N-1 pairs — "a relatively large traversal set" within the
// same order as true backbone links — yet its cover value is 1 because
// removing the singleton endpoint voids every pair. The set-size ranking
// therefore badly understates how much more important backbone links are;
// the cover ranking does not.
func TestAccessLinkParadox(t *testing.T) {
	// Two-level star: hub 0, five sub-hubs, four leaves per sub-hub (26
	// nodes): a caricature of an ISP backbone with access links.
	b := graph.NewStreamBuilder(26)
	for s := int32(1); s <= 5; s++ {
		b.AddEdge(0, s)
		for l := int32(0); l < 4; l++ {
			b.AddEdge(s, 6+(s-1)*4+l)
		}
	}
	g := b.Graph()

	sizes := TraversalSetSizes(g, Options{})
	values := LinkValues(g, Options{}).Values
	edges := g.Edges()
	var accessIdx, backboneIdx = -1, -1
	for i, e := range edges {
		if e.U == 0 && e.V == 1 {
			backboneIdx = i // hub to sub-hub
		}
		if e.V >= 6 && accessIdx == -1 {
			accessIdx = i // sub-hub to leaf
		}
	}
	if accessIdx == -1 || backboneIdx == -1 {
		t.Fatal("edges not found")
	}
	n := g.NumNodes()
	// Access link: every pair involving its leaf, both sweep directions.
	if sizes[accessIdx] != 2*(n-1) {
		t.Fatalf("access set size = %d, want %d", sizes[accessIdx], 2*(n-1))
	}
	// Its set is the same order as the backbone's (within ~5x)...
	sizeRatio := float64(sizes[backboneIdx]) / float64(sizes[accessIdx])
	if sizeRatio > 5 {
		t.Fatalf("size ratio %v; test graph no longer demonstrates the paradox", sizeRatio)
	}
	// ...but the cover values differ far more sharply.
	if values[accessIdx] > 1.01 {
		t.Fatalf("access link value = %v, want 1", values[accessIdx])
	}
	valueRatio := values[backboneIdx] / values[accessIdx]
	if valueRatio <= sizeRatio {
		t.Fatalf("cover ratio %.2f should exceed size ratio %.2f "+
			"(the paper's reason for using covers)", valueRatio, sizeRatio)
	}
}

func TestTraversalSizesTreeCenterDominates(t *testing.T) {
	g := canonical.Tree(2, 4)
	sizes := TraversalSetSizes(g, Options{})
	edges := g.Edges()
	// Root edges ((0,1),(0,2)) split the tree most evenly: largest sets.
	var rootSize, leafSize int
	for i, e := range edges {
		if e.U == 0 {
			rootSize = sizes[i]
		}
		if e.V == 30 { // a leaf edge
			leafSize = sizes[i]
		}
	}
	if rootSize <= leafSize {
		t.Fatalf("root set %d should exceed leaf set %d", rootSize, leafSize)
	}
}
