package metrics

import (
	"math"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
)

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
