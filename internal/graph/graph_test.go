package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *Graph {
	b := NewStreamBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Graph()
}

func cycleGraph(n int) *Graph {
	b := NewStreamBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Graph()
}

func completeGraph(n int) *Graph {
	b := NewStreamBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Graph()
}

// randomGraph returns a G(n,p)-ish graph for property tests.
func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	b := NewStreamBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	return b.Graph()
}

func TestBuilderDedup(t *testing.T) {
	b := NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop ignored
	b.AddEdge(2, 3)
	g := b.Graph()
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("expected edges missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edge present")
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewStreamBuilder(2).AddEdge(0, 5)
}

func TestDegreeAndAverages(t *testing.T) {
	g := completeGraph(5)
	for v := int32(0); v < 5; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if got := g.AvgDegree(); got != 4 {
		t.Fatalf("AvgDegree = %v, want 4", got)
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d, want 4", g.MaxDegree())
	}
}

func TestBFSPath(t *testing.T) {
	g := pathGraph(6)
	dist, order := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
	if len(order) != 6 || order[0] != 0 {
		t.Fatalf("bad BFS order %v", order)
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Graph()
	dist, order := g.BFS(0)
	if dist[2] != Unreached || dist[3] != Unreached {
		t.Fatal("expected Unreached for other component")
	}
	if len(order) != 2 {
		t.Fatalf("order = %v, want 2 nodes", order)
	}
}

func TestBFSCountsCycle(t *testing.T) {
	g := cycleGraph(6)
	_, sigma, _ := g.BFSCounts(0)
	// Node 3 is antipodal: two shortest paths around the cycle.
	if sigma[3] != 2 {
		t.Fatalf("sigma[3] = %v, want 2", sigma[3])
	}
	if sigma[1] != 1 || sigma[5] != 1 {
		t.Fatalf("sigma[1],sigma[5] = %v,%v, want 1,1", sigma[1], sigma[5])
	}
}

func TestBallSizes(t *testing.T) {
	g := pathGraph(10)
	s := NewBFSScratch()
	for h, want := range map[int]int{0: 1, 1: 2, 2: 3, 9: 10, 15: 10} {
		if got := len(s.Ball(g, 0, h)); got != want {
			t.Fatalf("Ball(0,%d) size = %d, want %d", h, got, want)
		}
	}
	mid := s.Ball(g, 5, 2)
	if len(mid) != 5 {
		t.Fatalf("Ball(5,2) size = %d, want 5", len(mid))
	}
}

// eccentricity is the largest finite BFS distance from src.
func eccentricity(g *Graph, src int32) int {
	dist, order := g.BFS(src)
	return int(dist[order[len(order)-1]])
}

func TestEccentricity(t *testing.T) {
	g := pathGraph(7)
	if got := eccentricity(g, 0); got != 6 {
		t.Fatalf("eccentricity(0) = %d, want 6", got)
	}
	if got := eccentricity(g, 3); got != 3 {
		t.Fatalf("eccentricity(3) = %d, want 3", got)
	}
}

func TestComponents(t *testing.T) {
	b := NewStreamBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Graph()
	_, sizes := g.Components()
	if len(sizes) != 4 {
		t.Fatalf("components = %d, want 4", len(sizes))
	}
	lc, orig := g.LargestComponent()
	if lc.NumNodes() != 3 || lc.NumEdges() != 2 {
		t.Fatalf("largest component %d nodes %d edges, want 3/2", lc.NumNodes(), lc.NumEdges())
	}
	if !reflect.DeepEqual(orig, []int32{0, 1, 2}) {
		t.Fatalf("orig = %v", orig)
	}
	if g.IsConnected() {
		t.Fatal("graph should not be connected")
	}
	if !lc.IsConnected() {
		t.Fatal("largest component should be connected")
	}
}

// TestLargestComponentEmpty: a graph with no nodes has no component, and
// its largest component is the empty graph with an empty mapping.
func TestLargestComponentEmpty(t *testing.T) {
	lc, orig := NewStreamBuilder(0).Graph().LargestComponent()
	if lc.NumNodes() != 0 || lc.NumEdges() != 0 || len(orig) != 0 {
		t.Fatalf("largest component of the empty graph: %d nodes, %d edges, mapping %v",
			lc.NumNodes(), lc.NumEdges(), orig)
	}
}

func TestSubgraphInduced(t *testing.T) {
	g := completeGraph(5)
	sub := g.Subgraph([]int32{0, 2, 4})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("subgraph %d/%d, want 3 nodes 3 edges", sub.NumNodes(), sub.NumEdges())
	}
}

func TestCoreRemovesTrees(t *testing.T) {
	// A 4-cycle with a path of two pendant nodes hanging off node 0.
	b := NewStreamBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 4)
	b.AddEdge(4, 5)
	g := b.Graph()
	core, orig := g.Core()
	if core.NumNodes() != 4 || core.NumEdges() != 4 {
		t.Fatalf("core %d/%d, want 4/4", core.NumNodes(), core.NumEdges())
	}
	if !reflect.DeepEqual(orig, []int32{0, 1, 2, 3}) {
		t.Fatalf("core orig = %v", orig)
	}
}

func TestCoreOfTreeIsEmpty(t *testing.T) {
	g := pathGraph(8)
	core, _ := g.Core()
	if core.NumNodes() != 0 {
		t.Fatalf("core of a path has %d nodes, want 0", core.NumNodes())
	}
}

func TestRemoveNodes(t *testing.T) {
	g := cycleGraph(5)
	sub, keep := g.RemoveNodes([]int32{0})
	if sub.NumNodes() != 4 || sub.NumEdges() != 3 {
		t.Fatalf("after removal %d/%d, want 4/3", sub.NumNodes(), sub.NumEdges())
	}
	if len(keep) != 4 {
		t.Fatalf("keep = %v", keep)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, 40, 0.1)
	g2 := FromEdges(g.NumNodes(), g.Edges())
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count mismatch %d vs %d", g2.NumEdges(), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestEdgeListIORoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 60, 0.08)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip %d/%d vs %d/%d", g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("edge sets differ after round trip")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 b\n", "-1 2\n"} {
		if _, err := ReadEdgeList(bytes.NewBufferString(bad)); err == nil {
			t.Fatalf("ReadEdgeList(%q) succeeded, want error", bad)
		}
	}
	// Header declares too few nodes.
	if _, err := ReadEdgeList(bytes.NewBufferString("# nodes 2 edges 1\n0 5\n")); err == nil {
		t.Fatal("expected node-count error")
	}
}

// TestReadEdgeListNodeCountBounds feeds node counts the int32 CSR cannot
// hold. Each must fail with an error before a graph is allocated: the
// reader's own allocations stay far below the 8 GB a 2^31-node offset
// array would need.
func TestReadEdgeListNodeCountBounds(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"# nodes 3000000000 edges 0\n", "node count 3000000000"},
		{"# nodes -4 edges 0\n0 1\n", "node count -4"},
		{"0 2147483647\n", "node id 2147483647 needs more than"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := ReadEdgeList(strings.NewReader(tc.in))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("ReadEdgeList(%q) = %v, %v; want error containing %q", tc.in, g, err, tc.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
			t.Fatalf("ReadEdgeList(%q) allocated %d bytes", tc.in, alloc)
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("got %d/%d, want 3/2", g.NumNodes(), g.NumEdges())
	}
}

// Property: sum of degrees equals 2|E| (handshake lemma).
func TestHandshakeLemmaProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%50) + 2
		p := float64(pRaw%90+5) / 100
		g := randomGraph(rand.New(rand.NewSource(seed)), n, p)
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: neighbor slices are sorted, symmetric and loop-free.
func TestAdjacencyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 30, 0.15)
		for u := int32(0); u < int32(g.NumNodes()); u++ {
			nb := g.Neighbors(u)
			for i, v := range nb {
				if v == u {
					return false // self loop
				}
				if i > 0 && nb[i-1] >= v {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(v, u) {
					return false // asymmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges:
// |dist(u) - dist(v)| <= 1 for every edge {u,v} in the same component.
func TestBFSEdgeDistanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 40, 0.08)
		if g.NumNodes() == 0 {
			return true
		}
		dist, _ := g.BFS(0)
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if (du == Unreached) != (dv == Unreached) {
				return false
			}
			if du != Unreached && (du-dv > 1 || dv-du > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: component sizes sum to N, and ball of radius >= eccentricity
// covers the whole component.
func TestBallCoversComponentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(rand.New(rand.NewSource(seed)), 35, 0.1)
		label, sizes := g.Components()
		total := 0
		for _, s := range sizes {
			total += s
		}
		if total != g.NumNodes() {
			return false
		}
		if g.NumNodes() == 0 {
			return true
		}
		ecc := eccentricity(g, 0)
		ball := NewBFSScratch().Ball(g, 0, ecc)
		return len(ball) == sizes[label[0]]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFS10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	builder := NewStreamBuilder(10000)
	for i := 0; i < 25000; i++ {
		builder.AddEdge(int32(r.Intn(10000)), int32(r.Intn(10000)))
	}
	g := builder.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(int32(i % 10000))
	}
}
