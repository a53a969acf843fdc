package internetsim

import (
	"math/rand"
	"testing"

	"topocmp/internal/stats"
)

func TestSizeDegreeCorrelation(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	as := MustGenerateAS(r, ASParams{NumAS: 1200})
	rl := MustGenerateRouters(r, as, RouterParams{})
	sd := SizeDegreeData(as, rl)
	if len(sd.Sizes) != as.Graph.NumNodes() {
		t.Fatalf("sizes = %d", len(sd.Sizes))
	}
	// Tangmunarunkit et al.: size and degree are strongly coupled.
	if c := sd.Correlation(); c < 0.7 {
		t.Fatalf("size/degree correlation = %v, want strong", c)
	}
	total := 0.0
	for _, s := range sd.Sizes {
		total += s
	}
	if int(total) != rl.Graph.NumNodes() {
		t.Fatalf("router counts sum to %v, want %d", total, rl.Graph.NumNodes())
	}
}

func TestSizeCCDFHeavyTailed(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	as := MustGenerateAS(r, ASParams{NumAS: 2000})
	rl := MustGenerateRouters(r, as, RouterParams{})
	var sizes []int
	for _, s := range SizeDegreeData(as, rl).Sizes {
		sizes = append(sizes, int(s))
	}
	ccdf := stats.CCDF(sizes)
	if ccdf.Len() < 5 {
		t.Fatalf("CCDF too short: %d", ccdf.Len())
	}
	// Most ASes are small; a few are two orders larger.
	maxSize := ccdf.Points[ccdf.Len()-1].X
	if maxSize < 30 {
		t.Fatalf("largest AS has %v routers; tail too light", maxSize)
	}
}
