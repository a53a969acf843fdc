package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
)

// This file keeps the historical per-ball kernels as references: the greedy
// cover on a lazy max-heap and the clustering coefficient's HasEdge loop
// over neighbour pairs.

// greedyCoverHeap is greedyCover as it ran on a lazily updated max-heap, a
// typed port of container/heap's sift order: every count change pushes a
// fresh entry, and a popped entry is skipped when its node is covered or
// its count is stale.
func greedyCoverHeap(g *graph.Graph) []int32 {
	n := g.NumNodes()
	uncov := make([]int, n) // uncovered incident edges per node
	inCover := make([]bool, n)
	h := make([]coverCand, 0, n)
	for v := int32(0); v < int32(n); v++ {
		uncov[v] = g.Degree(v)
		if uncov[v] > 0 {
			h = append(h, coverCand{v, uncov[v]})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		coverDown(h, i, len(h))
	}
	var cover []int32
	for len(h) > 0 {
		last := len(h) - 1
		h[0], h[last] = h[last], h[0]
		coverDown(h, 0, last)
		c := h[last]
		h = h[:last]
		u := c.v
		if inCover[u] || c.count != uncov[u] {
			continue // stale entry
		}
		if uncov[u] == 0 {
			break
		}
		inCover[u] = true
		cover = append(cover, u)
		uncov[u] = 0
		for _, v := range g.Neighbors(u) {
			if !inCover[v] && uncov[v] > 0 {
				uncov[v]--
				if uncov[v] > 0 {
					h = append(h, coverCand{v, uncov[v]})
					coverUp(h, len(h)-1)
				}
			}
		}
	}
	return cover
}

type coverCand struct {
	v     int32
	count int
}

// coverLess orders candidates by uncovered count descending, node id
// ascending — a strict total order, so heap pops are fully deterministic.
func coverLess(a, b coverCand) bool {
	if a.count != b.count {
		return a.count > b.count
	}
	return a.v < b.v
}

func coverUp(h []coverCand, j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !coverLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func coverDown(h []coverCand, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && coverLess(h[j2], h[j1]) {
			j = j2
		}
		if !coverLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// clusteringPairs is ClusteringCoefficient as it ran with one binary-search
// HasEdge per neighbour pair.
func clusteringPairs(g *graph.Graph) float64 {
	n := g.NumNodes()
	total, counted := 0.0, 0
	for v := int32(0); v < int32(n); v++ {
		nb := g.Neighbors(v)
		d := len(nb)
		if d < 2 {
			continue
		}
		links := 0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if g.HasEdge(nb[i], nb[j]) {
					links++
				}
			}
		}
		total += 2 * float64(links) / float64(d*(d-1))
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// coverFuzzGraph draws a simple graph on n nodes: about one node in eight
// left isolated, the rest joined with probability p, plus up to three
// stars whose hubs link to about half of the other connected nodes and,
// when ring is set, a cycle through every connected node, which adds a
// run of degree ties.
func coverFuzzGraph(r *rand.Rand, n int, p float64, stars int, ring bool) *graph.Graph {
	b := graph.NewBuilder(n)
	var live []int32
	for v := int32(0); v < int32(n); v++ {
		if r.Intn(8) > 0 {
			live = append(live, v)
		}
	}
	for i, u := range live {
		for _, v := range live[i+1:] {
			if r.Float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	for s := 0; s < stars && len(live) > 0; s++ {
		hub := live[r.Intn(len(live))]
		for _, v := range live {
			if r.Intn(2) == 0 {
				b.AddEdge(hub, v) // a self-loop is ignored
			}
		}
	}
	if ring && len(live) > 2 {
		for i, u := range live {
			b.AddEdge(u, live[(i+1)%len(live)])
		}
	}
	return b.Graph()
}

// checkCoverMatchesHeap runs one graph through ws and the references: the
// bucket-queue cover must be the lazy heap's node sequence, VertexCover the
// smaller of the matching and greedy covers, and the clustering
// coefficient the pair loop's, bit for bit.
func checkCoverMatchesHeap(t *testing.T, ws *coverScratch, g *graph.Graph) {
	t.Helper()
	want := greedyCoverHeap(g)
	if got := ws.greedyCover(g); !slices.Equal(got, want) {
		t.Fatalf("%d nodes, %d edges: bucket cover %v, heap cover %v", g.NumNodes(), g.NumEdges(), got, want)
	}
	m := slices.Clone(ws.matchingCover(g))
	vc := VertexCover(g)
	if len(want) < len(m) {
		m = want
	}
	if !slices.Equal(vc, m) {
		t.Fatalf("VertexCover %v, want the smaller of the matching and greedy covers %v", vc, m)
	}
	got, ref := ClusteringCoefficient(g), clusteringPairs(g)
	if math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("%d nodes, %d edges: marked clustering %v, pair loop %v", g.NumNodes(), g.NumEdges(), got, ref)
	}
}

// FuzzGreedyCoverMatchesHeap compares the bucket-queue greedy cover with
// the lazy-heap reference, and the marked clustering coefficient with the
// HasEdge pair loop, on random graphs of up to 64 nodes with isolated
// nodes, stars and degree ties. One workspace serves the graph, an induced
// subgraph and the graph again, so recycled buffers are exercised.
func FuzzGreedyCoverMatchesHeap(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), uint8(0))
	f.Add(int64(2), uint8(63), uint8(10), uint8(3))
	f.Add(int64(3), uint8(40), uint8(200), uint8(5))
	f.Add(int64(4), uint8(9), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%64
		g := coverFuzzGraph(r, n, float64(density)/255, int(shape%4), shape&4 != 0)
		half := make([]int32, 0, n)
		for _, v := range r.Perm(n)[:(n+1)/2] {
			half = append(half, int32(v))
		}
		ws := &coverScratch{}
		for _, h := range []*graph.Graph{g, g.Subgraph(half), g} {
			checkCoverMatchesHeap(t, ws, h)
		}
	})
}
