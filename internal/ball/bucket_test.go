package ball

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// bucketOffset is the distance of size's log from the log midpoint of its
// stats.BucketRatio bucket.
func bucketOffset(size int) float64 {
	b := stats.BucketIndex(float64(size), stats.BucketRatio)
	return math.Abs(math.Log(float64(size)) - (float64(b)+0.5)*math.Log(stats.BucketRatio))
}

// FuzzBallBucketSelection checks the one-ball-per-bucket selection end to
// end on random small graphs at random size limits. Per center, the radii
// BallPointsKernels evaluates must cover exactly the size buckets that the
// full eligible radius range covers (radii 1 through the eccentricity whose
// size lies in [Min, Max]), one radius each, in increasing order, each the
// eligible radius of its bucket nearest the bucket's log midpoint, the
// smaller one on a tie. The points, which also carry one draw of the
// per-center RNG, must be the same at engine parallelism 1 and 4.
func FuzzBallBucketSelection(f *testing.F) {
	f.Add(uint8(60), uint8(70), int64(1), uint8(2), uint8(0), uint8(8))
	f.Add(uint8(90), uint8(40), int64(7), uint8(3), uint8(25), uint8(12))
	f.Add(uint8(12), uint8(200), int64(3), uint8(0), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, nRaw, edgesRaw uint8, seed int64, minRaw, maxRaw, srcRaw uint8) {
		n := 1 + int(nRaw)%100
		r := rand.New(rand.NewSource(seed))
		b := graph.NewStreamBuilder(n)
		for i := 0; i < int(edgesRaw); i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Graph()
		minSize, maxSize := int(minRaw)%10, int(maxRaw)%(n+5) // Max 0: no cap
		cfg := func() Config {
			return Config{MaxSources: 1 + int(srcRaw)%16, MinBallSize: minSize,
				MaxBallSize: maxSize, Rand: rand.New(rand.NewSource(seed))}
		}
		// Y = 4·radius + an RNG draw in [0, 3), so the radius reads back and
		// a per-center RNG stream out of order shows at parallelism 4.
		run := func(par int) []stats.Point {
			return NewEngine(g, par).BallPointsKernels(cfg(), seed,
				func(_ *graph.Graph, radius int, rng *rand.Rand, _ *Kernels) (float64, bool) {
					return float64(4*radius + rng.Intn(3)), true
				})
		}
		pts := run(1)
		if par := run(4); !reflect.DeepEqual(pts, par) {
			t.Fatalf("parallelism 4 points %v differ from parallelism 1 %v", par, pts)
		}

		e := NewEngine(g, 1)
		c := cfg()
		for _, p := range e.Profiles(Centers(g, &c)) {
			center := p.Center
			eligible := map[int][]int{} // bucket -> eligible radii, increasing
			for h := 1; h <= p.Eccentricity(); h++ {
				sz := p.Size(h)
				if sz < minSize || (maxSize > 0 && sz > maxSize) {
					continue
				}
				bk := stats.BucketIndex(float64(sz), stats.BucketRatio)
				eligible[bk] = append(eligible[bk], h)
			}
			if len(pts) < len(eligible) {
				t.Fatalf("center %d: %d points left, want one per eligible bucket (%d)", center, len(pts), len(eligible))
			}
			mine := pts[:len(eligible)]
			pts = pts[len(eligible):]
			seen := map[int]bool{}
			prev := 0
			for _, pt := range mine {
				h := int(pt.Y) / 4
				sz := p.Size(h)
				if h <= prev || h > p.Eccentricity() || pt.X != float64(sz) {
					t.Fatalf("center %d: point %v is not a ball of a radius after %d", center, pt, prev)
				}
				prev = h
				if sz < minSize || (maxSize > 0 && sz > maxSize) {
					t.Fatalf("center %d radius %d: size %d outside [%d, %d]", center, h, sz, minSize, maxSize)
				}
				bk := stats.BucketIndex(float64(sz), stats.BucketRatio)
				if seen[bk] || eligible[bk] == nil {
					t.Fatalf("center %d radius %d: bucket %d evaluated twice or not eligible", center, h, bk)
				}
				seen[bk] = true
				for _, other := range eligible[bk] {
					d, od := bucketOffset(sz), bucketOffset(p.Size(other))
					if od < d || (od == d && other < h) {
						t.Fatalf("center %d bucket %d: radius %d (offset %v) kept over radius %d (offset %v)",
							center, bk, h, d, other, od)
					}
				}
			}
		}
		if len(pts) != 0 {
			t.Fatalf("%d points beyond the centers' eligible buckets", len(pts))
		}
	})
}

// TestBucketRadiiEdges pins the selection on hand-made size profiles: the
// limits are inclusive, a tie between two sizes equally far from the
// bucket's log midpoint keeps the smaller radius, and a center whose
// eligible range is empty evaluates nothing.
func TestBucketRadiiEdges(t *testing.T) {
	// Buckets of ratio 1.45: 2 → 1, 3 → 2, 4 → 3, 5 and 6 → 4, 7..9 → 5,
	// 10..13 → 6.
	cum := []int32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	if got, want := BucketRadii(cum, 0, 0), []int{1, 2, 3, 4, 7, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BucketRadii(1..13) = %v, want %v", got, want)
	}
	if got, want := BucketRadii(cum, 3, 9), []int{2, 3, 4, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BucketRadii(1..13, [3, 9]) = %v, want %v", got, want)
	}
	if got := BucketRadii(cum, 14, 0); len(got) != 0 {
		t.Fatalf("BucketRadii above every size = %v, want none", got)
	}
	if got := BucketRadii([]int32{1}, 0, 0); len(got) != 0 {
		t.Fatalf("BucketRadii of an isolated center = %v, want none", got)
	}
	// Two radii of equal size lie equally far from their bucket's
	// midpoint: the first one stays.
	if got := BucketRadii([]int32{1, 5, 5}, 0, 0); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("tied sizes kept %v, want the smaller radius [1]", got)
	}
}
