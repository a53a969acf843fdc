package graph

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// requireSameGraph asserts two graphs have byte-identical CSR arrays.
func requireSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("node count: want %d, got %d", want.NumNodes(), got.NumNodes())
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("edge count: want %d, got %d", want.NumEdges(), got.NumEdges())
	}
	if !reflect.DeepEqual(want.off, got.off) {
		t.Fatalf("offset arrays differ")
	}
	if !reflect.DeepEqual(want.adj, got.adj) {
		t.Fatalf("adjacency arrays differ")
	}
	if want.Fingerprint() != got.Fingerprint() {
		t.Fatalf("fingerprints differ on identical CSR")
	}
}

// edgeSetGraph is the reference the streamed builder is checked against:
// every pair normalized to u < v, self-loops dropped, the set sorted and
// deduplicated, then each node's neighbors laid out in sorted order.
func edgeSetGraph(n int, pairs [][2]int32) *Graph {
	var set [][2]int32
	for _, p := range pairs {
		u, v := min(p[0], p[1]), max(p[0], p[1])
		if u != v {
			set = append(set, [2]int32{u, v})
		}
	}
	slices.SortFunc(set, func(a, b [2]int32) int {
		if a[0] != b[0] {
			return cmp.Compare(a[0], b[0])
		}
		return cmp.Compare(a[1], b[1])
	})
	set = slices.Compact(set)
	nbrs := make([][]int32, n)
	for _, e := range set {
		nbrs[e[0]] = append(nbrs[e[0]], e[1])
		nbrs[e[1]] = append(nbrs[e[1]], e[0])
	}
	g := &Graph{off: make([]int32, n+1), adj: make([]int32, 0, 2*len(set)), m: len(set)}
	for v, nb := range nbrs {
		slices.Sort(nb)
		g.adj = append(g.adj, nb...)
		g.off[v+1] = int32(len(g.adj))
	}
	return g
}

// checkStreamBuilderMatchesEdgeSet streams pairs into a builder, freezing
// once after the first split pairs (the builder stays usable), and
// requires the final freeze to equal the edge-set reference: edge count,
// every neighbor slice and the fingerprint.
func checkStreamBuilderMatchesEdgeSet(t *testing.T, n int, pairs [][2]int32, split int) {
	t.Helper()
	b := NewStreamBuilder(n)
	for i, p := range pairs {
		if i == split {
			b.Graph()
		}
		b.AddEdge(p[0], p[1])
	}
	got, want := b.Graph(), edgeSetGraph(n, pairs)
	if got.NumNodes() != n || got.NumEdges() != want.NumEdges() {
		t.Fatalf("n=%d pairs %v: %d nodes / %d edges, reference %d / %d",
			n, pairs, got.NumNodes(), got.NumEdges(), n, want.NumEdges())
	}
	for v := int32(0); v < int32(n); v++ {
		if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("n=%d pairs %v: node %d neighbors %v, reference %v",
				n, pairs, v, got.Neighbors(v), want.Neighbors(v))
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("n=%d pairs %v: fingerprint %x, reference %x", n, pairs, got.Fingerprint(), want.Fingerprint())
	}
}

// FuzzStreamBuilderMatchesEdgeSet reads an edge list of up to 64 nodes from
// raw bytes, two per pair, so self-loops, repeats and both orientations of
// an edge all occur, and checks the streamed freeze against the edge-set
// reference.
func FuzzStreamBuilderMatchesEdgeSet(f *testing.F) {
	f.Add(uint8(4), uint8(255), []byte{0, 1, 1, 0, 2, 2, 2, 3, 0, 1})
	f.Add(uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, split uint8, data []byte) {
		n := 1 + int(nRaw)%64
		pairs := make([][2]int32, len(data)/2)
		for i := range pairs {
			pairs[i] = [2]int32{int32(data[2*i]) % int32(n), int32(data[2*i+1]) % int32(n)}
		}
		checkStreamBuilderMatchesEdgeSet(t, n, pairs, int(split))
	})
}

// TestStreamBuilderMatchesMapBuilder pushes randomized edge multisets —
// duplicates, self-loops, isolated nodes — through the builder and
// requires the CSR of the sorted, deduplicated edge set. (The name
// predates the edge-set reference.)
func TestStreamBuilderMatchesMapBuilder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		var pairs [][2]int32
		for i := r.Intn(4 * n); i > 0; i-- {
			u := int32(r.Intn(n))
			v := int32(r.Intn(n)) // may equal u: a self-loop to drop
			pairs = append(pairs, [2]int32{u, v})
			if r.Intn(3) == 0 { // duplicate, possibly flipped
				pairs = append(pairs, [2]int32{v, u})
			}
		}
		checkStreamBuilderMatchesEdgeSet(t, n, pairs, r.Intn(len(pairs)+1))
	}
}

func TestStreamBuilderEmptyAndTiny(t *testing.T) {
	requireSameGraph(t, edgeSetGraph(0, nil), NewStreamBuilder(0).Graph())
	requireSameGraph(t, edgeSetGraph(5, nil), NewStreamBuilder(5).Graph())

	sb := NewStreamBuilder(2)
	for i := 0; i < 3; i++ {
		sb.AddEdge(1, 0)
	}
	g := sb.Graph()
	if g.NumEdges() != 1 {
		t.Fatalf("dedup: want 1 edge, got %d", g.NumEdges())
	}
	requireSameGraph(t, edgeSetGraph(2, [][2]int32{{0, 1}}), g)
}

func TestStreamBuilderNeighborsSorted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 500
	b := NewStreamBuilder(n)
	b.Reserve(3 * n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	g := b.Graph()
	for v := int32(0); v < int32(n); v++ {
		nb := g.Neighbors(v)
		for i := 1; i < len(nb); i++ {
			if nb[i-1] >= nb[i] {
				t.Fatalf("node %d: neighbors not strictly sorted: %v", v, nb)
			}
		}
	}
}

// TestStreamBuilderReusableAfterFreeze freezes, adds more edges and
// freezes again: the builder stays usable after a freeze.
func TestStreamBuilderReusableAfterFreeze(t *testing.T) {
	b := NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g1 := b.Graph()
	if g1.NumEdges() != 2 {
		t.Fatalf("first freeze: want 2 edges, got %d", g1.NumEdges())
	}
	b.AddEdge(2, 3)
	b.AddEdge(0, 1) // duplicate of an already-frozen edge
	g2 := b.Graph()
	if g2.NumEdges() != 3 {
		t.Fatalf("second freeze: want 3 edges, got %d", g2.NumEdges())
	}
	if !g2.HasEdge(2, 3) || !g2.HasEdge(0, 1) {
		t.Fatalf("second freeze lost edges")
	}
}

func TestStreamBuilderEnsureNodes(t *testing.T) {
	b := NewStreamBuilder(0)
	b.EnsureNodes(2)
	b.AddEdge(0, 1)
	b.EnsureNodes(5) // trailing isolated nodes survive
	g := b.Graph()
	if g.NumNodes() != 5 || g.NumEdges() != 1 {
		t.Fatalf("want 5 nodes / 1 edge, got %d / %d", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(4) != 0 {
		t.Fatalf("node 4 should be isolated")
	}
}

func TestStreamBuilderRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-range AddEdge did not panic")
		}
	}()
	NewStreamBuilder(3).AddEdge(0, 3)
}

func TestFingerprintDistinguishes(t *testing.T) {
	a := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	b := FromEdges(3, []Edge{{0, 1}, {0, 2}})
	c := FromEdges(3, []Edge{{0, 1}, {1, 2}})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatalf("different graphs share a fingerprint")
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatalf("identical graphs disagree")
	}
}
