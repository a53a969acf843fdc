package hierarchy

import "topocmp/internal/graph"

// Provider forces a sweep's row provider past the diameter probe, for the
// differential tests that pin both providers to byte-identical output.
type Provider = provider

// The providers: the probe (the production setting) and the two it
// chooses between.
const (
	Probed      = probed
	ScalarRows  = scalarProvider
	BatchedRows = batchProvider
)

// Force returns opts with the row provider forced to p.
func Force(opts Options, p Provider) Options {
	opts.force = p
	return opts
}

// HalfCovers returns every edge's link value and final cover set from the
// production sweep over unordered pairs, and OrderedCovers the same from
// the ordered reference sweep (ordered_test.go).
func HalfCovers(g *graph.Graph, opts Options) ([]float64, [][]int32) {
	return routeCovers(g, opts, true, sweepPlain)
}

func OrderedCovers(g *graph.Graph, opts Options) ([]float64, [][]int32) {
	return routeCovers(g, opts, false, sweepOrdered)
}
