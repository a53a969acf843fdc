package policy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"topocmp/internal/graph"
)

// Validate checks that every edge of the graph is annotated consistently in
// both directions.
func (a *Annotated) Validate() error {
	for _, e := range a.G.Edges() {
		ruv, rvu := a.Rel(e.U, e.V), a.Rel(e.V, e.U)
		if ruv == RelNone || rvu == RelNone {
			return fmt.Errorf("policy: edge (%d,%d) not annotated", e.U, e.V)
		}
		ok := (ruv == RelCustomer && rvu == RelProvider) ||
			(ruv == RelProvider && rvu == RelCustomer) ||
			(ruv == RelPeer && rvu == RelPeer) ||
			(ruv == RelSibling && rvu == RelSibling)
		if !ok {
			return fmt.Errorf("policy: edge (%d,%d) annotated %v/%v", e.U, e.V, ruv, rvu)
		}
	}
	return nil
}

// Dist computes router-level policy distances from src: BFS over the
// (router × valley-state) product, where intra-AS hops keep the state and
// inter-AS hops follow the AS relationship transition.
func (o *RouterOverlay) Dist(src int32) []int32 { return productDist(o.RL, o.rel, src) }

// figure15 reconstructs the Appendix E example (Figure 15): nodes A..H with
// policy distances A=0, B=1, C=1, H=1, D=2, E=2, G=3, F=4.
//
// Relationships chosen to reproduce the published ball contents:
// A–B peer; B→E provider-customer; A→H provider-customer; C provider of A;
// D provider of C; E provider of D; F provider of E; E→G provider-customer.
const (
	nA = iota
	nB
	nC
	nD
	nE
	nF
	nG
	nH
)

func figure15() *Annotated {
	b := graph.NewStreamBuilder(8)
	edges := [][2]int32{
		{nA, nB}, {nA, nC}, {nA, nH}, {nB, nE},
		{nC, nD}, {nD, nE}, {nE, nF}, {nE, nG},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	a := NewAnnotated(b.Graph())
	a.SetPeer(nA, nB)
	a.SetProviderCustomer(nB, nE) // B provides to E
	a.SetProviderCustomer(nA, nH)
	a.SetProviderCustomer(nC, nA) // C is A's provider
	a.SetProviderCustomer(nD, nC)
	a.SetProviderCustomer(nE, nD)
	a.SetProviderCustomer(nF, nE)
	a.SetProviderCustomer(nE, nG)
	return a
}

func TestAnnotatedValidate(t *testing.T) {
	a := figure15()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b := graph.NewStreamBuilder(2)
	b.AddEdge(0, 1)
	unannotated := NewAnnotated(b.Graph())
	if err := unannotated.Validate(); err == nil {
		t.Fatal("expected validation error for unannotated edge")
	}
}

func TestRelationshipStrings(t *testing.T) {
	want := map[Relationship]string{
		RelNone: "none", RelCustomer: "customer", RelProvider: "provider",
		RelPeer: "peer", RelSibling: "sibling",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("String(%d) = %q", r, r.String())
		}
	}
}

func TestFigure15Distances(t *testing.T) {
	a := figure15()
	d := a.Dist(nA)
	want := []int32{0, 1, 1, 2, 2, 4, 3, 1}
	for v, w := range want {
		if d[v] != w {
			t.Fatalf("pdist(%c) = %d, want %d", 'A'+v, d[v], w)
		}
	}
}

func edgeSet(edges []graph.Edge) map[[2]int32]bool {
	s := map[[2]int32]bool{}
	for _, e := range edges {
		s[[2]int32{e.U, e.V}] = true
	}
	return s
}

func TestFigure15BallRadius3(t *testing.T) {
	a := figure15()
	b := a.PolicyBall(nA, 3)
	wantNodes := []int32{nA, nB, nC, nD, nE, nG, nH}
	got := append([]int32(nil), b.Nodes...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(wantNodes) {
		t.Fatalf("ball nodes = %v, want %v", got, wantNodes)
	}
	for i := range wantNodes {
		if got[i] != wantNodes[i] {
			t.Fatalf("ball nodes = %v, want %v", got, wantNodes)
		}
	}
	es := edgeSet(b.Edges)
	wantEdges := [][2]int32{{nA, nB}, {nA, nC}, {nA, nH}, {nB, nE}, {nC, nD}, {nE, nG}}
	if len(es) != len(wantEdges) {
		t.Fatalf("ball edges = %v, want %v", b.Edges, wantEdges)
	}
	for _, e := range wantEdges {
		if !es[e] {
			t.Fatalf("missing edge %v in %v", e, b.Edges)
		}
	}
}

func TestFigure15BallRadius4(t *testing.T) {
	// "A ball of radius 4 includes all nodes and links in the ball of
	// radius 3 plus node F and links (D,E) and (E,F)."
	a := figure15()
	b := a.PolicyBall(nA, 4)
	if len(b.Nodes) != 8 {
		t.Fatalf("ball nodes = %v, want all 8", b.Nodes)
	}
	es := edgeSet(b.Edges)
	if len(es) != 8 {
		t.Fatalf("ball edges = %v, want all 8", b.Edges)
	}
	if !es[[2]int32{nD, nE}] || !es[[2]int32{nE, nF}] {
		t.Fatalf("radius-4 ball must add (D,E) and (E,F): %v", b.Edges)
	}
}

func TestPolicyDistNeverShorterThanBFS(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(1)), 200, 400)
	sd, _ := a.G.BFS(0)
	pd := a.Dist(0)
	for v := range sd {
		if sd[v] != graph.Unreached && pd[v] != graph.Unreached && pd[v] < sd[v] {
			t.Fatalf("policy dist %d < shortest %d at node %d", pd[v], sd[v], v)
		}
	}
}

// randomAnnotated builds a connected-ish random graph with random
// relationships for property-style tests.
func randomAnnotated(r *rand.Rand, n, m int) *Annotated {
	b := graph.NewStreamBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(int32(i), int32(r.Intn(i)))
	}
	for i := 0; i < m; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g := b.Graph()
	a := NewAnnotated(g)
	for _, e := range g.Edges() {
		switch r.Intn(4) {
		case 0:
			a.SetProviderCustomer(e.U, e.V)
		case 1:
			a.SetProviderCustomer(e.V, e.U)
		case 2:
			a.SetPeer(e.U, e.V)
		default:
			a.SetSibling(e.U, e.V)
		}
	}
	return a
}

func TestValleyFreeInvariant(t *testing.T) {
	// Every edge included in a policy ball must be traversable in some
	// valley-free walk; spot check by validating ball subgraphs connect.
	a := randomAnnotated(rand.New(rand.NewSource(2)), 150, 300)
	b := a.PolicyBall(0, 3)
	sub := b.Subgraph()
	if sub.NumNodes() != len(b.Nodes) {
		t.Fatalf("subgraph nodes %d != %d", sub.NumNodes(), len(b.Nodes))
	}
	if len(b.Nodes) > 1 && !sub.IsConnected() {
		t.Fatal("policy ball subgraph should be connected")
	}
}

func TestPathInflationAtLeastOne(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(3)), 120, 240)
	infl := a.PathInflation([]int32{0, 5, 10})
	if infl < 1 {
		t.Fatalf("path inflation = %v, want >= 1", infl)
	}
}

func TestAllSiblingsEqualsShortestPaths(t *testing.T) {
	// With every edge sibling, policy imposes no constraint.
	r := rand.New(rand.NewSource(4))
	b := graph.NewStreamBuilder(80)
	for i := 1; i < 80; i++ {
		b.AddEdge(int32(i), int32(r.Intn(i)))
	}
	g := b.Graph()
	a := NewAnnotated(g)
	for _, e := range g.Edges() {
		a.SetSibling(e.U, e.V)
	}
	sd, _ := g.BFS(0)
	pd := a.Dist(0)
	for v := range sd {
		if sd[v] != pd[v] {
			t.Fatalf("sibling-only pdist %d != %d at %d", pd[v], sd[v], v)
		}
	}
}

func TestGaoInferenceOnCleanHierarchy(t *testing.T) {
	// Three-tier provider hierarchy; paths generated by valley-free
	// routing should let Gao recover every provider-customer edge.
	b := graph.NewStreamBuilder(9)
	// 0 is the core (highest degree, as Gao's top-provider heuristic
	// assumes); 1,2,7,8 its customers; 3,4 customers of 1; 5,6 of 2.
	prov := [][2]int32{
		{0, 1}, {0, 2}, {0, 7}, {0, 8},
		{1, 3}, {1, 4}, {2, 5}, {2, 6},
	}
	for _, e := range prov {
		b.AddEdge(e[0], e[1])
	}
	g := b.Graph()
	truth := NewAnnotated(g)
	for _, e := range prov {
		truth.SetProviderCustomer(e[0], e[1])
	}
	// AS paths as seen at stub vantage points (uphill then downhill).
	paths := [][]int32{
		{3, 1}, {3, 1, 0}, {3, 1, 4}, {3, 1, 0, 2}, {3, 1, 0, 2, 5}, {3, 1, 0, 2, 6},
		{3, 1, 0, 7}, {3, 1, 0, 8},
		{5, 2, 0, 1, 3}, {6, 2}, {4, 1, 0}, {7, 0, 2, 5}, {8, 0, 1, 4},
	}
	inferred := InferGao(g, paths)
	acc := InferenceAccuracy(truth, inferred)
	if acc < 0.99 {
		t.Fatalf("Gao accuracy = %v, want ~1", acc)
	}
}

func TestGaoInfersPeerWhenNoTransit(t *testing.T) {
	// Edge (1,2) never carries transit in the paths: inferred peer.
	b := graph.NewStreamBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 2)
	g := b.Graph()
	paths := [][]int32{{1, 0}, {2, 0}}
	inferred := InferGao(g, paths)
	if inferred.Rel(1, 2) != RelPeer {
		t.Fatalf("rel(1,2) = %v, want peer", inferred.Rel(1, 2))
	}
}

func TestRouterOverlayValidation(t *testing.T) {
	asb := graph.NewStreamBuilder(2)
	asb.AddEdge(0, 1)
	asg := asb.Graph()
	a := NewAnnotated(asg)
	a.SetProviderCustomer(0, 1)
	rlb := graph.NewStreamBuilder(4)
	rlb.AddEdge(0, 1)
	rlb.AddEdge(1, 2)
	rlb.AddEdge(2, 3)
	rl := rlb.Graph()
	if _, err := NewRouterOverlay(rl, []int32{0, 0, 1}, a); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, err := NewRouterOverlay(rl, []int32{0, 0, 1, 9}, a); err == nil {
		t.Fatal("expected invalid-AS error")
	}
	o, err := NewRouterOverlay(rl, []int32{0, 0, 1, 1}, a)
	if err != nil {
		t.Fatal(err)
	}
	d := o.Dist(0)
	want := []int32{0, 1, 2, 3}
	for v, w := range want {
		if d[v] != w {
			t.Fatalf("router pdist[%d] = %d, want %d", v, d[v], w)
		}
	}
}

func TestRouterOverlayValleyBlocked(t *testing.T) {
	// AS topology: 1 and 2 are both customers of 0... but 1-2 also peer?
	// Simpler: AS 0 -> AS 1 (0 provider), AS 0 -> AS 2. Routers in AS 1
	// cannot reach AS 2 via AS 1->0->2? That IS allowed (up then down).
	// Blocked case: AS1 and AS2 peer with AS0; path 1-0-2 would be
	// peer,peer: invalid.
	asb := graph.NewStreamBuilder(3)
	asb.AddEdge(0, 1)
	asb.AddEdge(0, 2)
	asg := asb.Graph()
	a := NewAnnotated(asg)
	a.SetPeer(0, 1)
	a.SetPeer(0, 2)
	rlb := graph.NewStreamBuilder(3)
	rlb.AddEdge(0, 1) // AS1 router - AS0 router
	rlb.AddEdge(1, 2) // AS0 router - AS2 router
	rl := rlb.Graph()
	o, err := NewRouterOverlay(rl, []int32{1, 0, 2}, a)
	if err != nil {
		t.Fatal(err)
	}
	d := o.Dist(0)
	if d[2] != graph.Unreached {
		t.Fatalf("peer-peer valley should be unreachable, got %d", d[2])
	}
}

func TestRouterPolicyBall(t *testing.T) {
	asb := graph.NewStreamBuilder(2)
	asb.AddEdge(0, 1)
	asg := asb.Graph()
	a := NewAnnotated(asg)
	a.SetProviderCustomer(0, 1)
	rlb := graph.NewStreamBuilder(5)
	rlb.AddEdge(0, 1)
	rlb.AddEdge(1, 2)
	rlb.AddEdge(2, 3)
	rlb.AddEdge(3, 4)
	rl := rlb.Graph()
	o, err := NewRouterOverlay(rl, []int32{0, 0, 1, 1, 1}, a)
	if err != nil {
		t.Fatal(err)
	}
	b := o.PathsInto(nil, 0).Ball(2)
	if len(b.Nodes) != 3 || len(b.Edges) != 2 {
		t.Fatalf("ball = %d nodes %d edges, want 3/2", len(b.Nodes), len(b.Edges))
	}
}
