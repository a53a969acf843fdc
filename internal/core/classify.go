package core

import (
	"math"

	"topocmp/internal/stats"
)

// Level is the paper's qualitative Low/High judgement (§3.2.1).
type Level int

const (
	// Low and High follow the paper's table vocabulary.
	Low Level = iota
	High
)

// String implements fmt.Stringer.
func (l Level) String() string {
	if l == High {
		return "H"
	}
	return "L"
}

// Signature is a network's three-metric L/H pattern, e.g. the measured
// graphs' H/H/L.
type Signature struct {
	Expansion  Level
	Resilience Level
	Distortion Level
}

// String renders "HHL"-style signatures.
func (s Signature) String() string {
	return s.Expansion.String() + s.Resilience.String() + s.Distortion.String()
}

// ClassifyExpansion distinguishes exponential growth (High: tree, random,
// measured, PLRG, TS, Waxman) from polynomial growth (Low: mesh, Tiers) by
// comparing the quality of an exponential (semi-log) fit against a
// polynomial (log-log) fit over the pre-saturation region, exactly the
// "qualitative shape" judgement of §4.1.
func ClassifyExpansion(e stats.Series) Level {
	var pre []stats.Point
	for _, p := range e.Points {
		if p.X >= 1 && p.Y > 0 && p.Y <= 0.6 {
			pre = append(pre, p)
		}
	}
	if len(pre) < 3 {
		// Saturation within a couple of hops is extreme (complete-graph
		// style) expansion.
		return High
	}
	expFit := stats.SemiLogFit(pre)
	polyFit := stats.LogLogFit(pre)
	// A polynomial E(h) ∝ h^a has a log-log slope near a and a poor
	// semi-log fit; exponential growth is the reverse. When the fits are
	// close, a log-log slope above ~3 still indicates super-polynomial
	// growth at these scales.
	if polyFit.R2 > expFit.R2 && polyFit.Slope < 3.2 {
		return Low
	}
	return High
}

// ClassifyResilience distinguishes growing cut sizes (High: random kn, mesh
// sqrt(n), measured, PLRG, Tiers, Waxman) from flat ones (Low: tree, TS) by
// the log-log slope of R(n).
func ClassifyResilience(r stats.Series) Level {
	if r.Len() == 0 {
		return Low
	}
	last := r.Points[r.Len()-1]
	if r.Len() < 3 {
		// Degenerate curves (e.g. the complete graph saturates in one
		// hop): judge by the cut magnitude relative to ball size.
		if last.Y >= last.X/8 {
			return High
		}
		return Low
	}
	// Fit the mid region: tiny balls are stars and noise, and balls
	// approaching the whole graph plateau (a finite-size artifact the
	// paper's larger graphs avoid). The paper reads the same mid-range
	// behaviour off its log-log plots.
	maxX := last.X
	var asym []stats.Point
	for _, p := range r.Points {
		if p.X >= 20 && p.X <= 0.6*maxX {
			asym = append(asym, p)
		}
	}
	if len(asym) < 3 {
		asym = r.Points
	}
	fit := stats.LogLogFit(asym)
	// High resilience needs either sustained growth with cuts clearly
	// above the ~log n regime of trees and Transit-Stub, or cuts whose
	// sheer magnitude rules that regime out (balls near the whole graph
	// plateau, flattening the late slope, but a tree never reaches these
	// values).
	maxY, maxX := 0.0, 0.0
	for _, p := range r.Points {
		if p.Y > maxY {
			maxY = p.Y
		}
		if p.X > maxX {
			maxX = p.X
		}
	}
	logBound := 2 * math.Log2(maxX)
	if (fit.Slope >= 0.3 && last.Y > logBound) ||
		last.Y >= last.X/8 ||
		maxY > 1.25*logBound {
		return High
	}
	return Low
}

// ClassifyDistortion distinguishes log-growing distortion (High: mesh,
// random, Waxman) from flat low distortion (Low: tree, measured, PLRG, TS,
// Tiers). The judgement combines the value reached at the largest measured
// ball with the growth rate against log(n).
func ClassifyDistortion(d stats.Series) Level {
	if d.Len() == 0 {
		return Low
	}
	last := d.Points[d.Len()-1]
	// Per-decade growth of distortion: semi-log-x fit D = a*log10(n) + b.
	var lg []stats.Point
	for _, p := range d.Points {
		if p.X > 1 {
			lg = append(lg, stats.Point{X: log10(p.X), Y: p.Y})
		}
	}
	slope := 0.0
	if len(lg) >= 3 {
		slope = stats.LinearFit(lg).Slope
	}
	if last.Y >= 3.4 || (last.Y >= 2.6 && slope >= 0.9) {
		return High
	}
	return Low
}

func log10(x float64) float64 { return math.Log10(x) }

// Classify derives the network's three-metric signature from its suite
// result.
func Classify(res *SuiteResult) Signature {
	return Signature{
		Expansion:  ClassifyExpansion(res.Expansion),
		Resilience: ClassifyResilience(res.Resilience),
		Distortion: ClassifyDistortion(res.Distortion),
	}
}
