package canonical

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topocmp/internal/graph"
)

func TestTreePaperInstance(t *testing.T) {
	// k=3, D=6 -> 1093 nodes, avg degree 2.00 (Figure 1).
	g := Tree(3, 6)
	if g.NumNodes() != 1093 {
		t.Fatalf("nodes = %d, want 1093", g.NumNodes())
	}
	if g.NumEdges() != 1092 {
		t.Fatalf("edges = %d, want 1092", g.NumEdges())
	}
	if math.Abs(g.AvgDegree()-2.0) > 0.01 {
		t.Fatalf("avg degree = %.3f, want ~2.00", g.AvgDegree())
	}
	if !g.IsConnected() {
		t.Fatal("tree must be connected")
	}
}

func TestTreeDegrees(t *testing.T) {
	g := Tree(3, 2) // 13 nodes: root deg 3, internals deg 4, leaves deg 1
	if g.Degree(0) != 3 {
		t.Fatalf("root degree = %d", g.Degree(0))
	}
	if g.Degree(1) != 4 {
		t.Fatalf("internal degree = %d", g.Degree(1))
	}
	if g.Degree(12) != 1 {
		t.Fatalf("leaf degree = %d", g.Degree(12))
	}
}

func TestTreeDegenerate(t *testing.T) {
	if g := Tree(3, 0); g.NumNodes() != 1 || g.NumEdges() != 0 {
		t.Fatal("depth-0 tree should be a single node")
	}
	if g := Tree(1, 4); g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatal("1-ary tree should be a path")
	}
}

func TestMeshPaperInstance(t *testing.T) {
	// 30x30 grid -> 900 nodes, avg degree 3.87 (Figure 1).
	g := Mesh(30, 30)
	if g.NumNodes() != 900 {
		t.Fatalf("nodes = %d, want 900", g.NumNodes())
	}
	wantEdges := 2 * 30 * 29
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	if math.Abs(g.AvgDegree()-3.87) > 0.01 {
		t.Fatalf("avg degree = %.3f, want ~3.87", g.AvgDegree())
	}
}

func TestMeshCorners(t *testing.T) {
	g := Mesh(3, 4)
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree = %d", g.Degree(0))
	}
	if g.Degree(5) != 4 { // interior node (row 1, col 1)
		t.Fatalf("interior degree = %d", g.Degree(5))
	}
	if !g.IsConnected() {
		t.Fatal("mesh must be connected")
	}
}

func TestRandomPaperScale(t *testing.T) {
	// n=5018 comes from the largest component of a slightly larger draw;
	// we check that G(5100, 0.0008)'s giant component is close to the paper's
	// size and degree (4.18).
	r := rand.New(rand.NewSource(42))
	g := Random(r, 5150, 0.0008)
	if g.NumNodes() < 4500 || g.NumNodes() > 5150 {
		t.Fatalf("giant component = %d nodes", g.NumNodes())
	}
	if d := g.AvgDegree(); d < 3.5 || d > 5.0 {
		t.Fatalf("avg degree = %.2f, want ~4.2", d)
	}
	if !g.IsConnected() {
		t.Fatal("largest component must be connected")
	}
}

func TestRandomEdgeCountMatchesP(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n, p := 400, 0.05
	// Count edges over the raw draw via expectation bounds on the giant
	// component; easier: p large enough that graph is connected whp.
	g := Random(r, n, p)
	if g.NumNodes() != n {
		t.Fatalf("dense G(n,p) should be connected: %d of %d nodes", g.NumNodes(), n)
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.NumEdges())
	if math.Abs(got-want)/want > 0.15 {
		t.Fatalf("edges = %v, want ~%v", got, want)
	}
}

func TestRandomDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if g := Random(r, 10, 0); g.NumNodes() != 1 {
		t.Fatal("G(n,0) largest component should be a single node")
	}
	g := Random(r, 6, 1)
	if g.NumEdges() != 15 {
		t.Fatalf("G(6,1) edges = %d, want 15", g.NumEdges())
	}
}

func TestComplete(t *testing.T) {
	g := Complete(7)
	if g.NumEdges() != 21 || g.AvgDegree() != 6 {
		t.Fatalf("complete graph: %d edges, avg %v", g.NumEdges(), g.AvgDegree())
	}
}

func TestLinear(t *testing.T) {
	g := Linear(9)
	if g.NumEdges() != 8 {
		t.Fatalf("linear edges = %d", g.NumEdges())
	}
	if dist, order := g.BFS(0); dist[order[len(order)-1]] != 8 {
		t.Fatalf("chain eccentricity = %d", dist[order[len(order)-1]])
	}
}

// Property: trees have exactly n-1 edges and are connected (so acyclic).
func TestTreeInvariantProperty(t *testing.T) {
	f := func(kRaw, dRaw uint8) bool {
		k := int(kRaw)%4 + 1
		d := int(dRaw) % 6
		g := Tree(k, d)
		return g.NumEdges() == g.NumNodes()-1 && g.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: mesh BFS distance equals Manhattan distance.
func TestMeshManhattanProperty(t *testing.T) {
	g := Mesh(8, 11)
	dist, _ := g.BFS(0)
	for r := 0; r < 8; r++ {
		for c := 0; c < 11; c++ {
			if dist[r*11+c] != int32(r+c) {
				t.Fatalf("dist(0 -> %d,%d) = %d, want %d", r, c, dist[r*11+c], r+c)
			}
		}
	}
}

// Property: expansion ordering sanity — for the same radius, the tree ball
// grows much faster than the mesh ball of a comparable-size graph.
func TestTreeVsMeshExpansion(t *testing.T) {
	tree := Tree(3, 6) // 1093 nodes
	mesh := Mesh(33, 33)
	h := 4
	s := graph.NewBFSScratch()
	treeBall := len(s.Ball(tree, 0, h))
	meshBall := len(s.Ball(mesh, int32(16*33+16), h))
	if treeBall <= meshBall {
		t.Fatalf("tree ball %d should exceed mesh ball %d", treeBall, meshBall)
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"tree arity": func() { Tree(0, 3) },
		"tree depth": func() { Tree(2, -1) },
		"mesh dims":  func() { Mesh(0, 5) },
		"random p":   func() { Random(rand.New(rand.NewSource(1)), 5, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
