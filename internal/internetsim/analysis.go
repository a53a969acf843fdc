package internetsim

import (
	"topocmp/internal/stats"
)

// SizeDegree pairs each AS's router count with its AS-level degree.
type SizeDegree struct {
	Sizes   []float64 // routers per AS
	Degrees []float64 // AS degree
}

// SizeDegreeData extracts the per-AS size/degree pairs of a router-level
// expansion: the relationship studied by Tangmunarunkit et al. ("Does AS
// Size Determine AS Degree?", CCR 2001), which argues the AS degree
// distribution's high variability follows from the high variability of AS
// sizes. Our synthesizer couples the two by construction; this analysis
// quantifies the coupling the same way one would on real data.
func SizeDegreeData(as *ASLevel, rl *RouterLevel) SizeDegree {
	counts := make([]float64, as.Graph.NumNodes())
	for _, a := range rl.ASOf {
		counts[a]++
	}
	degrees := make([]float64, as.Graph.NumNodes())
	for v := range degrees {
		degrees[v] = float64(as.Graph.Degree(int32(v)))
	}
	return SizeDegree{Sizes: counts, Degrees: degrees}
}

// Correlation returns the Pearson correlation between AS size and degree.
func (sd SizeDegree) Correlation() float64 {
	return stats.Pearson(sd.Sizes, sd.Degrees)
}
