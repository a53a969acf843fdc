package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCCDF(t *testing.T) {
	s := CCDF([]int{1, 1, 2, 3})
	want := []Point{{1, 1}, {2, 0.5}, {3, 0.25}}
	if len(s.Points) != len(want) {
		t.Fatalf("points = %v", s.Points)
	}
	for i, p := range want {
		if s.Points[i] != p {
			t.Fatalf("point %d = %v, want %v", i, s.Points[i], p)
		}
	}
}

func TestCCDFEmpty(t *testing.T) {
	if s := CCDF(nil); s.Len() != 0 {
		t.Fatal("CCDF(nil) should be empty")
	}
}

// Property: CCDF is non-increasing in value, starts at 1.
func TestCCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int, len(raw))
		for i, v := range raw {
			xs[i] = int(v % 20)
		}
		s := CCDF(xs)
		if s.Points[0].Y != 1 {
			return false
		}
		for i := 1; i < s.Len(); i++ {
			if s.Points[i].Y > s.Points[i-1].Y || s.Points[i].X <= s.Points[i-1].X {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRankDistribution(t *testing.T) {
	s := RankDistribution([]float64{0.1, 0.9, 0.5})
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Points[0].Y != 0.9 || s.Points[2].Y != 0.1 {
		t.Fatalf("points = %v", s.Points)
	}
	if math.Abs(s.Points[0].X-1.0/3) > 1e-12 || s.Points[2].X != 1 {
		t.Fatalf("ranks = %v", s.Points)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if r := Pearson([]float64{1, 1, 1}, []float64{2, 3, 4}); r != 0 {
		t.Fatalf("zero-variance Pearson = %v, want 0", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Fatalf("empty Pearson = %v, want 0", r)
	}
}

func TestPearsonMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Pearson([]float64{1}, []float64{1, 2})
}

// Property: |Pearson| <= 1.
func TestPearsonBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = r.NormFloat64()
		}
		p := Pearson(xs, ys)
		return p >= -1-1e-9 && p <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLinearFitExact(t *testing.T) {
	pts := []Point{{0, 1}, {1, 3}, {2, 5}}
	f := LinearFit(pts)
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", f.R2)
	}
}

func TestLogLogFitPowerLaw(t *testing.T) {
	// y = 5 x^{-2.3}
	var pts []Point
	for x := 1.0; x <= 100; x *= 1.5 {
		pts = append(pts, Point{x, 5 * math.Pow(x, -2.3)})
	}
	f := LogLogFit(pts)
	if math.Abs(f.Slope+2.3) > 1e-9 {
		t.Fatalf("slope = %v, want -2.3", f.Slope)
	}
	if f.R2 < 0.999 {
		t.Fatalf("R2 = %v", f.R2)
	}
}

func TestSemiLogFitExponential(t *testing.T) {
	// y = 2 * e^{0.7 x}
	var pts []Point
	for x := 0.0; x < 10; x++ {
		pts = append(pts, Point{x, 2 * math.Exp(0.7*x)})
	}
	f := SemiLogFit(pts)
	if math.Abs(f.Slope-0.7) > 1e-9 {
		t.Fatalf("slope = %v, want 0.7", f.Slope)
	}
}

func TestLogFitsSkipNonPositive(t *testing.T) {
	f := LogLogFit([]Point{{0, 1}, {-1, 2}, {1, 0}})
	if f.Slope != 0 || f.R2 != 0 {
		t.Fatalf("fit of empty log set = %+v", f)
	}
}

func TestBucketize(t *testing.T) {
	pts := []Point{{1, 1}, {1.1, 3}, {100, 10}, {110, 20}}
	s := Bucketize(pts, 2)
	if s.Len() != 2 {
		t.Fatalf("buckets = %v", s.Points)
	}
	if math.Abs(s.Points[0].Y-2) > 1e-12 {
		t.Fatalf("first bucket avg = %v, want 2", s.Points[0].Y)
	}
	if math.Abs(s.Points[1].Y-15) > 1e-12 {
		t.Fatalf("second bucket avg = %v, want 15", s.Points[1].Y)
	}
}

func TestBucketizeBadRatioPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Bucketize(nil, 1)
}

func TestSeriesYAt(t *testing.T) {
	s := Series{Points: []Point{{1, 10}, {5, 50}, {9, 90}}}
	if y := s.YAt(0.5); y != 10 {
		t.Fatalf("YAt(0.5) = %v", y)
	}
	if y := s.YAt(5); y != 50 {
		t.Fatalf("YAt(5) = %v", y)
	}
	if y := s.YAt(7); y != 50 {
		t.Fatalf("YAt(7) = %v", y)
	}
	if y := s.YAt(100); y != 90 {
		t.Fatalf("YAt(100) = %v", y)
	}
}

func TestFractionAbove(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if f := FractionAbove(xs, 5); f != 0.5 {
		t.Fatalf("FractionAbove = %v, want 0.5", f)
	}
	if f := FractionAbove(nil, 0); f != 0 {
		t.Fatalf("empty FractionAbove = %v", f)
	}
}
