package waxman

import (
	"fmt"
	"math"
	"math/rand"

	"topocmp/internal/geo"
	"topocmp/internal/graph"
)

// Model selects the edge-probability function. These are the flat random
// graph variants Zegura, Calvert and Donahoo compare ("A Quantitative
// Comparison of Graph-Based Models for Internet Topology", ToN 1997), the
// study the paper extends (§2).
type Model int

const (
	// ModelWaxman1 is the classic Waxman probability alpha*exp(-d/(beta*L)).
	ModelWaxman1 Model = iota
	// ModelWaxman2 replaces the distance with a random value: geographic
	// placement without geographic bias.
	ModelWaxman2
	// ModelPureRandom ignores geometry entirely: P = alpha.
	ModelPureRandom
	// ModelExponential uses alpha*exp(-d/(L-d)): probability collapses as
	// d approaches the plane diameter.
	ModelExponential
	// ModelLocality uses alpha within radius Gamma*L and beta outside —
	// the two-level locality model.
	ModelLocality
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case ModelWaxman1:
		return "waxman1"
	case ModelWaxman2:
		return "waxman2"
	case ModelPureRandom:
		return "pure-random"
	case ModelExponential:
		return "exponential"
	case ModelLocality:
		return "locality"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ModelParams configures GenerateModel.
type ModelParams struct {
	N     int
	Model Model
	Alpha float64 // base probability scale, in (0, 1]
	Beta  float64 // model-specific second parameter (see each Model)
	Gamma float64 // locality radius fraction (ModelLocality); default 0.25
	Side  float64 // plane side; defaults to N
}

// Validate reports whether the parameters are usable.
func (p ModelParams) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("waxman: N = %d < 2", p.N)
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		return fmt.Errorf("waxman: Alpha = %v outside (0,1]", p.Alpha)
	}
	switch p.Model {
	case ModelWaxman1, ModelWaxman2:
		if p.Beta <= 0 || p.Beta > 1 {
			return fmt.Errorf("waxman: Beta = %v outside (0,1]", p.Beta)
		}
	case ModelLocality:
		if p.Beta < 0 || p.Beta > 1 {
			return fmt.Errorf("waxman: locality Beta = %v outside [0,1]", p.Beta)
		}
	case ModelPureRandom, ModelExponential:
		// Alpha alone.
	default:
		return fmt.Errorf("waxman: unknown model %d", p.Model)
	}
	return nil
}

// GenerateModel produces the largest connected component of a flat
// random-graph model over points on a plane.
func GenerateModel(r *rand.Rand, p ModelParams) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	side := p.Side
	if side <= 0 {
		side = float64(p.N)
	}
	gamma := p.Gamma
	if gamma == 0 {
		gamma = 0.25
	}
	pts := geo.RandomPoints(r, p.N, side)
	maxDist := side * math.Sqrt2
	prob := func(d float64) float64 {
		switch p.Model {
		case ModelWaxman1:
			return p.Alpha * math.Exp(-d/(p.Beta*maxDist))
		case ModelWaxman2:
			return p.Alpha * math.Exp(-r.Float64()/p.Beta)
		case ModelPureRandom:
			return p.Alpha
		case ModelExponential:
			if d >= maxDist {
				return 0
			}
			return p.Alpha * math.Exp(-d/(maxDist-d))
		case ModelLocality:
			if d < gamma*maxDist {
				return p.Alpha
			}
			return p.Beta
		}
		return 0
	}
	b := graph.NewStreamBuilder(p.N) // the i < j loop never repeats a pair
	for i := 0; i < p.N; i++ {
		for j := i + 1; j < p.N; j++ {
			if r.Float64() < prob(pts[i].Dist(pts[j])) {
				b.AddEdge(int32(i), int32(j))
			}
		}
	}
	lc, _ := b.Graph().LargestComponent()
	return lc, nil
}
