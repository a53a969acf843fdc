package rng

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPowerLawDegreesRange(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ds := PowerLawDegrees(r, 5000, 2.2, 1000)
	if len(ds) != 5000 {
		t.Fatalf("len = %d", len(ds))
	}
	for _, d := range ds {
		if d < 1 || d > 1000 {
			t.Fatalf("degree %d out of range", d)
		}
	}
}

func TestPowerLawDegreesTail(t *testing.T) {
	// With beta = 2.2 the fraction of degree-1 nodes should dominate and the
	// empirical CCDF should be heavy-tailed: some degree >= 30 should appear
	// in a large sample.
	r := rand.New(rand.NewSource(2))
	ds := PowerLawDegrees(r, 20000, 2.2, 2000)
	ones, big := 0, 0
	for _, d := range ds {
		if d == 1 {
			ones++
		}
		if d >= 30 {
			big++
		}
	}
	if frac := float64(ones) / float64(len(ds)); frac < 0.5 {
		t.Fatalf("degree-1 fraction = %.3f, want > 0.5", frac)
	}
	if big == 0 {
		t.Fatal("no node with degree >= 30; tail too light")
	}
}

func TestPowerLawExponentEmpirical(t *testing.T) {
	// The ratio P(1)/P(2) should be close to 2^beta.
	r := rand.New(rand.NewSource(3))
	beta := 2.5
	ds := PowerLawDegrees(r, 200000, beta, 500)
	var c1, c2 int
	for _, d := range ds {
		switch d {
		case 1:
			c1++
		case 2:
			c2++
		}
	}
	got := float64(c1) / float64(c2)
	want := math.Pow(2, beta)
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("P(1)/P(2) = %.3f, want ~%.3f", got, want)
	}
}

func TestParetoMinimum(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if v := Pareto(r, 3, 1.5); v < 3 {
			t.Fatalf("Pareto below xm: %v", v)
		}
	}
}

func TestBoundedParetoIntClamps(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		v := BoundedParetoInt(r, 2, 50, 1.1)
		if v < 2 || v > 50 {
			t.Fatalf("value %d outside [2,50]", v)
		}
	}
	if v := BoundedParetoInt(r, 7, 7, 1.0); v != 7 {
		t.Fatalf("degenerate range: got %d, want 7", v)
	}
}

// Property: SampleInts returns k distinct values in range.
func TestSampleIntsProperty(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%100 + 1
		k := int(kRaw) % (n + 20)
		r := rand.New(rand.NewSource(seed))
		s := SampleInts(r, n, k)
		wantLen := k
		if k > n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleIntsUniform(t *testing.T) {
	// Every element should be roughly equally likely to appear.
	r := rand.New(rand.NewSource(9))
	counts := make([]int, 10)
	for trial := 0; trial < 20000; trial++ {
		for _, v := range SampleInts(r, 10, 3) {
			counts[v]++
		}
	}
	sort.Ints(counts)
	if float64(counts[0])/float64(counts[9]) < 0.9 {
		t.Fatalf("sampling skew too high: %v", counts)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	xs := []int{1, 2, 3, 4, 5, 6}
	ys := append([]int(nil), xs...)
	Shuffle(r, ys)
	sort.Ints(ys)
	for i := range xs {
		if xs[i] != ys[i] {
			t.Fatalf("shuffle lost elements: %v", ys)
		}
	}
}
