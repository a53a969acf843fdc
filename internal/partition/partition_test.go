package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// balanced verifies the side assignment respects the balance bound.
func balanced(side []bool, balance float64) bool {
	t := 0
	for _, s := range side {
		if s {
			t++
		}
	}
	n := len(side)
	heavier := t
	if n-t > heavier {
		heavier = n - t
	}
	return float64(heavier) <= balance*float64(n)+1
}

// trueCut counts edges crossing the partition.
func trueCut(g *graph.Graph, side []bool) int {
	cut := 0
	for _, e := range g.Edges() {
		if side[e.U] != side[e.V] {
			cut++
		}
	}
	return cut
}

func TestTreeCutIsTiny(t *testing.T) {
	// A balanced bipartition of a path cuts exactly 1 edge.
	g := canonical.Linear(100)
	cut, side := BisectWith(NewWorkspace(), g, nil)
	if cut != trueCut(g, side) {
		t.Fatalf("reported cut %d != actual %d", cut, trueCut(g, side))
	}
	if cut != 1 {
		t.Fatalf("path cut = %d, want 1", cut)
	}
	if !balanced(side, 0.56) {
		t.Fatal("partition unbalanced")
	}
}

func TestBinaryTreeCutSmall(t *testing.T) {
	g := canonical.Tree(2, 9) // 1023 nodes
	cut, side := BisectWith(NewWorkspace(), g, nil)
	if !balanced(side, 0.56) {
		t.Fatal("partition unbalanced")
	}
	// A tree always admits a small balanced cut; the heuristic should find
	// a cut far below the mesh/random regime.
	if cut > 12 {
		t.Fatalf("tree cut = %d, want small (<= 12)", cut)
	}
}

func TestMeshCutNearSqrtN(t *testing.T) {
	g := canonical.Mesh(24, 24) // 576 nodes
	cut, side := BisectWith(NewWorkspace(), g, nil)
	if !balanced(side, 0.56) {
		t.Fatal("partition unbalanced")
	}
	// Optimal is 24 (a straight cut); heuristics should stay within ~2x.
	if cut < 24 || cut > 60 {
		t.Fatalf("mesh cut = %d, want in [24, 60]", cut)
	}
}

func TestRandomCutLarge(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := canonical.Random(r, 600, 0.02) // avg degree ~12
	cut, side := BisectWith(NewWorkspace(), g, nil)
	if !balanced(side, 0.56) {
		t.Fatal("partition unbalanced")
	}
	// Random graph bisection width is Θ(E); expect a cut comparable to a
	// constant fraction of edges, far above the mesh regime.
	if cut < g.NumEdges()/8 {
		t.Fatalf("random cut = %d of %d edges; too small", cut, g.NumEdges())
	}
}

func TestOrderingTreeMeshRandom(t *testing.T) {
	// The calibration the paper relies on: R(tree) << R(mesh) << R(random)
	// at comparable sizes.
	r := rand.New(rand.NewSource(2))
	tree := canonical.Tree(2, 9)                       // 1023
	mesh := canonical.Mesh(32, 32)                     // 1024
	random := canonical.Random(r, 1100, 4.18/1100.0*2) // ~avg degree 4
	tc := CutSizeWith(NewWorkspace(), tree, nil)
	mc := CutSizeWith(NewWorkspace(), mesh, nil)
	rc := CutSizeWith(NewWorkspace(), random, nil)
	if !(tc < mc && mc < rc) {
		t.Fatalf("cut ordering tree=%d mesh=%d random=%d violated", tc, mc, rc)
	}
}

func TestTinyGraphs(t *testing.T) {
	if c, _ := BisectWith(NewWorkspace(), canonical.Linear(0), nil); c != 0 {
		t.Fatal("empty graph cut != 0")
	}
	if c, _ := BisectWith(NewWorkspace(), canonical.Linear(1), nil); c != 0 {
		t.Fatal("single node cut != 0")
	}
	if c, _ := BisectWith(NewWorkspace(), canonical.Linear(2), nil); c != 1 {
		t.Fatalf("two-node path cut = %d, want 1", c)
	}
	if c, _ := BisectWith(NewWorkspace(), canonical.Complete(2), nil); c != 1 {
		t.Fatal("K2 cut != 1")
	}
}

func TestCompleteGraphCut(t *testing.T) {
	g := canonical.Complete(16)
	cut, _ := BisectWith(NewWorkspace(), g, nil)
	if cut != 64 { // 8*8 crossing edges
		t.Fatalf("K16 balanced cut = %d, want 64", cut)
	}
}

// FuzzCompleteBisection checks the bisection of Complete(n), n in [2, 300],
// at a fuzzed seed against its closed form. Every split of K_n cuts
// s·(n−s) edges, fewest at the most unbalanced split the balance allows:
// a = max(⌊0.55·n⌋, ⌈n/2⌉) nodes on the heavier side, computed as refine
// computes it, so the cut is a·(n−a) (K20 cuts 11·9 = 99, not 10·10).
func FuzzCompleteBisection(f *testing.F) {
	f.Add(uint16(18), int64(1))
	f.Add(uint16(0), int64(7))
	f.Add(uint16(298), int64(-3))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := 2 + int(nRaw)%299
		a := int(0.55 * float64(n))
		if a*2 < n {
			a = (n + 1) / 2
		}
		cut := CutSizeWith(NewWorkspace(), canonical.Complete(n), rand.New(rand.NewSource(seed)))
		if want := a * (n - a); cut != want {
			t.Fatalf("Complete(%d) at seed %d: cut %d, want %d·%d = %d", n, seed, cut, a, n-a, want)
		}
	})
}

// edgeBytes encodes an edge list as FuzzBisectBalanced reads it: two
// little-endian uint16 endpoints per edge.
func edgeBytes(edges [][2]int) []byte {
	var out []byte
	for _, e := range edges {
		out = append(out, byte(e[0]), byte(e[0]>>8), byte(e[1]), byte(e[1]>>8))
	}
	return out
}

// FuzzBisectBalanced checks the bisection's two promises on raw-byte
// graphs of 2–300 nodes, isolated nodes, self-loops and repeats included:
// each side holds at most max(⌊0.55·n⌋, ⌈n/2⌉) nodes, computed as refine
// computes it, and the returned cut is the cut of the returned sides. The
// seed corpus holds the shapes that broke the first promise before coarse
// nodes had a weight cap: stars, hubs with many leaves, and sparse graphs
// with many isolated nodes, where heavy-edge matching let one hub absorb
// most of the graph.
func FuzzBisectBalanced(f *testing.F) {
	star := func(n, hubs int) []byte {
		var edges [][2]int
		for v := hubs; v < n; v++ {
			edges = append(edges, [2]int{v % hubs, v})
		}
		for h := 1; h < hubs; h++ {
			edges = append(edges, [2]int{0, h})
		}
		return edgeBytes(edges)
	}
	// The first argument is the node count less 2.
	f.Add(uint16(298), int64(1), star(300, 1))
	f.Add(uint16(198), int64(2), star(200, 2))
	f.Add(uint16(248), int64(3), star(250, 5))
	f.Add(uint16(298), int64(4), star(120, 3)) // 180 isolated nodes
	r := rand.New(rand.NewSource(5))
	var sparse [][2]int
	for i := 0; i < 60; i++ {
		sparse = append(sparse, [2]int{r.Intn(10), r.Intn(300)})
	}
	f.Add(uint16(298), int64(5), edgeBytes(sparse))
	f.Add(uint16(62), int64(6), []byte{0, 0, 1, 0, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, nRaw uint16, seed int64, data []byte) {
		n := 2 + int(nRaw)%299
		b := graph.NewStreamBuilder(n)
		for i := 0; i+3 < len(data); i += 4 {
			u := int(data[i]) | int(data[i+1])<<8
			v := int(data[i+2]) | int(data[i+3])<<8
			b.AddEdge(int32(u%n), int32(v%n))
		}
		g := b.Graph()
		maxSide := int(0.55 * float64(n))
		if maxSide*2 < n {
			maxSide = (n + 1) / 2
		}
		cut, side := BisectWith(NewWorkspace(), g, rand.New(rand.NewSource(seed)))
		heavy := 0
		for _, s := range side {
			if s {
				heavy++
			}
		}
		heavy = max(heavy, n-heavy)
		if heavy > maxSide {
			t.Fatalf("n=%d, %d edges, seed %d: heavier side %d nodes, balance allows %d",
				n, g.NumEdges(), seed, heavy, maxSide)
		}
		if want := trueCut(g, side); cut != want {
			t.Fatalf("n=%d, %d edges, seed %d: reported cut %d, sides cut %d", n, g.NumEdges(), seed, cut, want)
		}
	})
}

// Property: the reported cut always equals the actual crossing-edge count
// and the partition is balanced.
func TestCutConsistencyProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%120 + 10
		r := rand.New(rand.NewSource(seed))
		b := graph.NewStreamBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		cut, side := BisectWith(NewWorkspace(), g, rand.New(rand.NewSource(seed+1)))
		return cut == trueCut(g, side) && balanced(side, 0.58)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWithFixedRand(t *testing.T) {
	g := canonical.Mesh(15, 15)
	c1 := CutSizeWith(NewWorkspace(), g, rand.New(rand.NewSource(3)))
	c2 := CutSizeWith(NewWorkspace(), g, rand.New(rand.NewSource(3)))
	if c1 != c2 {
		t.Fatalf("same seed gave cuts %d and %d", c1, c2)
	}
}

func TestScalingSanity(t *testing.T) {
	// Mesh cut should grow roughly like sqrt(n): quadrupling the mesh
	// should about double the cut.
	small := CutSizeWith(NewWorkspace(), canonical.Mesh(12, 12), nil)
	large := CutSizeWith(NewWorkspace(), canonical.Mesh(24, 24), nil)
	ratio := float64(large) / float64(small)
	if ratio < 1.3 || ratio > 3.5 {
		t.Fatalf("mesh cut scaling ratio = %.2f (small=%d large=%d), want ~2",
			ratio, small, large)
	}
	if math.IsNaN(ratio) {
		t.Fatal("NaN ratio")
	}
}

func BenchmarkBisectMesh900(b *testing.B) {
	g := canonical.Mesh(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CutSizeWith(NewWorkspace(), g, rand.New(rand.NewSource(int64(i))))
	}
}
