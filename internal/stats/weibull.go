package stats

import "math"

// WeibullFit holds the estimated parameters of a Weibull tail
// P(X > x) = exp(-(x/Lambda)^K), the alternative to a strict power law that
// Broido and Claffy report for Internet degree distributions (the paper's
// §2 notes it does not care which form holds, only that the tail is heavy).
type WeibullFit struct {
	K, Lambda float64
	R2        float64
}

// FitWeibullTail estimates K and Lambda from CCDF points by regressing
// ln(-ln CCDF(x)) on ln(x). Points with CCDF values of exactly 1 or 0 (or
// nonpositive x) carry no information for the linearization and are
// skipped.
func FitWeibullTail(ccdf Series) WeibullFit {
	var pts []Point
	for _, p := range ccdf.Points {
		if p.X <= 0 || p.Y <= 0 || p.Y >= 1 {
			continue
		}
		pts = append(pts, Point{math.Log(p.X), math.Log(-math.Log(p.Y))})
	}
	f := LinearFit(pts)
	out := WeibullFit{K: f.Slope, R2: f.R2}
	if f.Slope != 0 {
		out.Lambda = math.Exp(-f.Intercept / f.Slope)
	}
	return out
}
