package metrics

import (
	"math"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
)

func TestLaplacianSpectrumKnown(t *testing.T) {
	// Laplacian of K_n: eigenvalues n (n-1 times) and 0 (once).
	eig := LaplacianSpectrum(canonical.Complete(5))
	if math.Abs(eig[0]-5) > 1e-9 || math.Abs(eig[3]-5) > 1e-9 {
		t.Fatalf("K5 Laplacian = %v", eig)
	}
	if math.Abs(eig[4]) > 1e-9 {
		t.Fatalf("smallest eigenvalue = %v, want 0", eig[4])
	}
	// Path P2: eigenvalues 2, 0.
	eig = LaplacianSpectrum(canonical.Linear(2))
	if math.Abs(eig[0]-2) > 1e-9 || math.Abs(eig[1]) > 1e-9 {
		t.Fatalf("P2 Laplacian = %v", eig)
	}
}

func TestLaplacianZeroMultiplicityEqualsComponents(t *testing.T) {
	// The multiplicity of eigenvalue 0 equals the number of components.
	b := graph.NewStreamBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(4, 5)
	eig := LaplacianSpectrum(b.Graph())
	zeros := 0
	for _, ev := range eig {
		if math.Abs(ev) < 1e-9 {
			zeros++
		}
	}
	if zeros != 3 {
		t.Fatalf("zero multiplicity = %d, want 3", zeros)
	}
}

func TestEigenvalueOneMultiplicity(t *testing.T) {
	// A star K_{1,k} has Laplacian eigenvalues {0, 1 (k-1 times), k+1}.
	b := graph.NewStreamBuilder(6)
	for i := int32(1); i < 6; i++ {
		b.AddEdge(0, i)
	}
	if m := EigenvalueOneMultiplicity(b.Graph(), 1e-8); m != 4 {
		t.Fatalf("star multiplicity = %d, want 4", m)
	}
	// Grids have none (Vukadinovic et al.'s discriminator).
	if m := EigenvalueOneMultiplicity(canonical.Mesh(4, 4), 1e-8); m != 0 {
		t.Fatalf("mesh multiplicity = %d, want 0", m)
	}
}

func TestEigenvalueOneSeparatesASLikeFromMesh(t *testing.T) {
	g := plrg.MustGenerate(newRand(11), plrg.Params{N: 120, Beta: 2.1})
	plrgMult := EigenvalueOneMultiplicity(g, 1e-6)
	meshMult := EigenvalueOneMultiplicity(canonical.Mesh(10, 10), 1e-6)
	if plrgMult <= meshMult {
		t.Fatalf("PLRG multiplicity %d should exceed mesh %d", plrgMult, meshMult)
	}
}

func TestSmallWorldness(t *testing.T) {
	// A PLRG is small-world-ish: high sigma driven by short paths; a large
	// mesh is not.
	g := plrg.MustGenerate(newRand(12), plrg.Params{N: 1500, Beta: 2.0})
	sw := SmallWorldness(g, 32)
	if sw.PathLength <= 1 || sw.Clustering < 0 {
		t.Fatalf("bad small-world stats %+v", sw)
	}
	mesh := SmallWorldness(canonical.Mesh(25, 25), 32)
	if mesh.Sigma >= 1 {
		t.Fatalf("mesh sigma = %v, want < 1 (not small-world)", mesh.Sigma)
	}
}

func TestHopPlotMonotoneAndSaturates(t *testing.T) {
	g := canonical.Tree(3, 5)
	s := HopPlot(g, 0, nil)
	n := float64(g.NumNodes())
	if s.Points[0].Y != n { // h=0: every node reaches itself
		t.Fatalf("hopplot(0) = %v, want %v", s.Points[0].Y, n)
	}
	for i := 1; i < s.Len(); i++ {
		if s.Points[i].Y < s.Points[i-1].Y {
			t.Fatal("hop plot must be nondecreasing")
		}
	}
	last := s.Points[s.Len()-1]
	if math.Abs(last.Y-n*n) > 1e-6 {
		t.Fatalf("hopplot(max) = %v, want n^2 = %v", last.Y, n*n)
	}
}

func TestHopPlotSampled(t *testing.T) {
	g := canonical.Mesh(12, 12)
	full := HopPlot(g, 0, nil)
	sampled := HopPlot(g, 30, newRand(13))
	// Sampled estimate should be within ~25% of full at mid radius.
	h := 6.0
	f, sgot := full.YAt(h), sampled.YAt(h)
	if math.Abs(f-sgot)/f > 0.25 {
		t.Fatalf("sampled hopplot %v deviates from full %v", sgot, f)
	}
}
