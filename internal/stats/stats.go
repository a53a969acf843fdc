// Package stats provides the statistical utilities the metric suite and the
// figure harness share: CCDFs and rank distributions, Pearson correlation,
// least-squares fits in linear and log-log space (power-law exponent
// estimation), and a small Series type representing one plotted curve.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Point is a single (X, Y) sample of a curve.
type Point struct{ X, Y float64 }

// Series is one named curve of a figure, e.g. the expansion of one topology.
//
// StdErr, when non-nil, parallels Points with a per-point standard error of
// the Y estimate: the sampled-estimator contract. nil means "no bound
// attached" (exhaustive legacy metrics); an all-zero slice means the series
// was fully enumerated, so the sampling error is exactly zero. Code that
// appends to Points via Add keeps StdErr nil; use AddWithErr to grow both.
type Series struct {
	Name   string
	Points []Point
	StdErr []float64
}

// Add appends a sample.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// AddWithErr appends a sample with its standard error, padding StdErr with
// zeros if earlier samples were added without one.
func (s *Series) AddWithErr(x, y, se float64) {
	for len(s.StdErr) < len(s.Points) {
		s.StdErr = append(s.StdErr, 0)
	}
	s.Points = append(s.Points, Point{x, y})
	s.StdErr = append(s.StdErr, se)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// SortByX orders the samples by increasing X, carrying any per-point
// standard errors along with their points.
func (s *Series) SortByX() {
	if s.StdErr == nil {
		sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].X < s.Points[j].X })
		return
	}
	for len(s.StdErr) < len(s.Points) {
		s.StdErr = append(s.StdErr, 0)
	}
	idx := make([]int, len(s.Points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.Points[idx[a]].X < s.Points[idx[b]].X })
	pts := make([]Point, len(idx))
	ses := make([]float64, len(idx))
	for i, j := range idx {
		pts[i] = s.Points[j]
		ses[i] = s.StdErr[j]
	}
	s.Points, s.StdErr = pts, ses
}

// YAt returns the Y value at the sample with the largest X <= x, or the
// first sample's Y if x precedes all samples. The series must be sorted.
func (s *Series) YAt(x float64) float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	i := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].X > x })
	if i == 0 {
		return s.Points[0].Y
	}
	return s.Points[i-1].Y
}

// CCDF returns the complementary cumulative distribution of the integer
// sample xs: points (k, P(X >= k)) for each distinct value k. This is the
// "complementary cumulative frequency" plotted in the paper's Appendix A.
func CCDF(xs []int) Series {
	if len(xs) == 0 {
		return Series{}
	}
	sorted := append([]int(nil), xs...)
	sort.Ints(sorted)
	n := float64(len(sorted))
	var s Series
	for i := 0; i < len(sorted); {
		k := sorted[i]
		// P(X >= k) = fraction of samples at index >= i.
		s.Add(float64(k), float64(len(sorted)-i)/n)
		j := i
		for j < len(sorted) && sorted[j] == k {
			j++
		}
		i = j
	}
	return s
}

// RankDistribution sorts values descending and returns points
// (rank/len, value): the normalized rank plots of Figures 3 and 4.
func RankDistribution(values []float64) Series {
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var s Series
	n := float64(len(sorted))
	for i, v := range sorted {
		s.Add(float64(i+1)/n, v)
	}
	return s
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanStdErrFPC returns the standard error of the sample mean of xs drawn
// without replacement from a population of size pop, with the finite
// population correction sqrt((N-k)/(N-1)) applied. It is exactly zero when
// the sample covers the whole population — which is how full-enumeration
// runs report zero-width bounds — and shrinks as the sample grows. Returns
// 0 for samples of size < 2 or nonsensical pop.
func MeanStdErrFPC(xs []float64, pop int) float64 {
	k := len(xs)
	if k < 2 || pop < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(k-1))
	se := sd / math.Sqrt(float64(k))
	if k >= pop {
		return 0
	}
	return se * math.Sqrt(float64(pop-k)/float64(pop-1))
}

// PropStdErrFPC returns the standard error of a sample proportion p
// estimated from k draws without replacement out of a population of pop,
// finite-population corrected. Zero when the sample is exhaustive.
func PropStdErrFPC(p float64, k, pop int) float64 {
	if k < 2 || pop < 2 || k >= pop {
		return 0
	}
	se := math.Sqrt(p * (1 - p) / float64(k))
	return se * math.Sqrt(float64(pop-k)/float64(pop-1))
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 if either variable has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Pearson length mismatch %d vs %d", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Fit is the result of a least-squares line fit y = Slope*x + Intercept.
type Fit struct {
	Slope, Intercept float64
	R2               float64
}

// LinearFit fits a least-squares line through the points.
func LinearFit(pts []Point) Fit {
	n := float64(len(pts))
	if n < 2 {
		return Fit{R2: 0}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for _, p := range pts {
		dx, dy := p.X-mx, p.Y-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{Intercept: my}
	}
	slope := sxy / sxx
	f := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		f.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		f.R2 = 1
	}
	return f
}

// LogLogFit fits log(y) = Slope*log(x) + Intercept over points with
// positive coordinates: the slope estimates a power-law exponent.
func LogLogFit(pts []Point) Fit {
	var lp []Point
	for _, p := range pts {
		if p.X > 0 && p.Y > 0 {
			lp = append(lp, Point{math.Log(p.X), math.Log(p.Y)})
		}
	}
	return LinearFit(lp)
}

// SemiLogFit fits log(y) = Slope*x + Intercept over points with positive Y:
// the fit quality distinguishes exponential from polynomial growth.
func SemiLogFit(pts []Point) Fit {
	var lp []Point
	for _, p := range pts {
		if p.Y > 0 {
			lp = append(lp, Point{p.X, math.Log(p.Y)})
		}
	}
	return LinearFit(lp)
}

// BucketRatio is the width of the geometric ball-size buckets every
// ball-size curve is averaged into, roughly matching the paper's log-scale
// sampling of ball sizes. The ball engine evaluates one ball per center
// and bucket of this ratio (ball.BucketRadii).
const BucketRatio = 1.45

// BucketIndex returns the geometric bucket of x > 0 at the given ratio,
// floor(log x / log ratio): bucket b holds [ratio^b, ratio^(b+1)). Bucketize
// and the ball engine's radius selection both call it, so the balls a
// curve evaluates and the buckets that average them cannot disagree.
func BucketIndex(x, ratio float64) int {
	return int(math.Floor(math.Log(x) / math.Log(ratio)))
}

// Bucketize aggregates raw (x, y) samples into geometric buckets of the
// given ratio (>1) and returns one averaged point per non-empty bucket.
// Metric curves keyed by ball size use this to tame sampling noise, like
// the paper's averaging of same-radius balls.
func Bucketize(pts []Point, ratio float64) Series {
	if ratio <= 1 {
		panic("stats: Bucketize ratio must exceed 1")
	}
	type acc struct {
		sx, sy float64
		n      int
	}
	buckets := map[int]*acc{}
	for _, p := range pts {
		if p.X <= 0 {
			continue
		}
		b := BucketIndex(p.X, ratio)
		a := buckets[b]
		if a == nil {
			a = &acc{}
			buckets[b] = a
		}
		a.sx += p.X
		a.sy += p.Y
		a.n++
	}
	var s Series
	for _, a := range buckets {
		s.Add(a.sx/float64(a.n), a.sy/float64(a.n))
	}
	s.SortByX()
	return s
}

// FractionAbove returns the fraction of values strictly above the threshold.
func FractionAbove(xs []float64, threshold float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cnt := 0
	for _, x := range xs {
		if x > threshold {
			cnt++
		}
	}
	return float64(cnt) / float64(len(xs))
}
