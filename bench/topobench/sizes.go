package main

import (
	"topocmp/internal/core"
	"topocmp/internal/experiments"
)

// sizes fixes how much work one repetition of each workload does. The
// command runs benchSizes; the tests run the same code at smokeSizes.
type sizes struct {
	// SetupReps is how often each repetition sets up from scratch; setup_s
	// is the median, and the last set-up's state feeds the measured phase.
	SetupReps int

	// Quick is the quick workload's pipeline configuration; its suite seed
	// is set per repetition.
	Quick experiments.Config

	// FullRLScale and FullRLCentres size the fullrl workload: the measured
	// Internet's scale and the sampled centres of its expansion and
	// eccentricity. FullRLNodes is the RL graph's size at that scale and
	// seed 1.
	FullRLScale   float64
	FullRLCentres int
	FullRLNodes   int

	// ServeSuite holds the serve-suite networks' set options and the suite
	// options every request carries (with its own seed).
	ServeSuite     experiments.Config
	SuiteRequests  int
	MetricScale    float64
	MetricRequests int
	// Clients is the closed loop's concurrency; CheckKeys the number of
	// distinct keys re-requested and compared after the timed phase.
	Clients   int
	CheckKeys int
}

// benchSizes are the benchmark's sizes.
var benchSizes = sizes{
	SetupReps:      3,
	Quick:          quickConfig(),
	FullRLScale:    core.ScalePresets["full-rl"],
	FullRLCentres:  512,
	FullRLNodes:    170555, // the real SCAN/Mercator map has 170,589
	ServeSuite:     serveSuiteConfig(),
	SuiteRequests:  800,
	MetricScale:    1.0,
	MetricRequests: 6000,
	Clients:        2,
	CheckKeys:      32,
}

// quickConfig is reproduce -quick's configuration with the link-value
// source budget cut from 384 to 192. At 384 sources one repetition holds
// 2.4 GB of heap, almost all of it link-value pair entries; at 192 it holds
// about 0.95 GB and runs the same stages in the same order. (At 128 the
// peak would halve again but flip between two GC-timing modes, 420 and
// 620 MB, from one run to the next.)
func quickConfig() experiments.Config {
	c := experiments.QuickConfig(1)
	c.Suite.LinkSources = 192
	return c
}

// serveSuiteConfig is the -quick network set with lighter suites: 6 ball
// centres capped at 500 nodes, 10 eigenvalues, and hierarchy off, so suite
// traffic exercises partition, Brandes and dedup and bypasses link values.
// At -quick's suite options one AS suite takes a second of CPU and 500
// requests take over a minute on two cores; these take about 40 ms.
func serveSuiteConfig() experiments.Config {
	c := experiments.QuickConfig(1)
	c.Suite = core.SuiteOptions{Sources: 6, MaxBallSize: 500, EigenRank: 10, SkipHierarchy: true}
	return c
}
