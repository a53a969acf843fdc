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
	cut, side := Bisect(g, Options{})
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
	cut, side := Bisect(g, Options{})
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
	cut, side := Bisect(g, Options{})
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
	cut, side := Bisect(g, Options{})
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
	tc := CutSize(tree, Options{})
	mc := CutSize(mesh, Options{})
	rc := CutSize(random, Options{})
	if !(tc < mc && mc < rc) {
		t.Fatalf("cut ordering tree=%d mesh=%d random=%d violated", tc, mc, rc)
	}
}

func TestTinyGraphs(t *testing.T) {
	if c, _ := Bisect(canonical.Linear(0), Options{}); c != 0 {
		t.Fatal("empty graph cut != 0")
	}
	if c, _ := Bisect(canonical.Linear(1), Options{}); c != 0 {
		t.Fatal("single node cut != 0")
	}
	if c, _ := Bisect(canonical.Linear(2), Options{}); c != 1 {
		t.Fatalf("two-node path cut = %d, want 1", c)
	}
	if c, _ := Bisect(canonical.Complete(2), Options{}); c != 1 {
		t.Fatal("K2 cut != 1")
	}
}

func TestCompleteGraphCut(t *testing.T) {
	g := canonical.Complete(16)
	cut, _ := Bisect(g, Options{})
	if cut != 64 { // 8*8 crossing edges
		t.Fatalf("K16 balanced cut = %d, want 64", cut)
	}
}

// Property: the reported cut always equals the actual crossing-edge count
// and the partition is balanced.
func TestCutConsistencyProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%120 + 10
		r := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u != v {
				b.AddEdge(u, v)
			}
		}
		g := b.Graph()
		cut, side := Bisect(g, Options{Rand: rand.New(rand.NewSource(seed + 1))})
		return cut == trueCut(g, side) && balanced(side, 0.58)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWithFixedRand(t *testing.T) {
	g := canonical.Mesh(15, 15)
	c1 := CutSize(g, Options{Rand: rand.New(rand.NewSource(3))})
	c2 := CutSize(g, Options{Rand: rand.New(rand.NewSource(3))})
	if c1 != c2 {
		t.Fatalf("same seed gave cuts %d and %d", c1, c2)
	}
}

func TestScalingSanity(t *testing.T) {
	// Mesh cut should grow roughly like sqrt(n): quadrupling the mesh
	// should about double the cut.
	small := CutSize(canonical.Mesh(12, 12), Options{})
	large := CutSize(canonical.Mesh(24, 24), Options{})
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
		CutSize(g, Options{Rand: rand.New(rand.NewSource(int64(i)))})
	}
}
