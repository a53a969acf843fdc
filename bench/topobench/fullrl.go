package main

import (
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/metrics"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

// runFullRL builds the measured Internet at the full-rl preset (set-up) and
// measures expansion plus eccentricity from sampled centres on one ball
// engine at width 1. Set-up holds the measurement pipeline: the ground
// truth, BGP collection, Gao inference and the traceroute sweep.
func runFullRL(r *rep) error {
	var ms *core.MeasuredSet
	var reg *obs.Registry
	err := r.setup(func() { ms = nil }, func(sp *obs.Span) error {
		reg = obs.NewRegistry()
		b := sp.Start("build:measured:AS+RL")
		ms = core.BuildMeasured(core.PaperSetOptions{Seed: r.seed, Scale: r.sz.FullRLScale, Metrics: reg})
		b.End()
		return nil
	})
	if err != nil {
		return err
	}
	g := ms.RL.Graph
	before := reg.Snapshot()
	var exp, ecc stats.Series
	err = r.measure(func(sp *obs.Span) error {
		s := sp.Start("suite:RL")
		defer s.End()
		eng := ball.NewEngine(g, 1)
		eng.Instrument(reg)
		st := s.Start("expansion")
		exp = metrics.ExpansionWith(eng, ball.Config{
			MaxSources: r.sz.FullRLCentres,
			Rand:       rand.New(rand.NewSource(r.seed)),
		})
		st.End()
		st = s.Start("eccentricity")
		ecc = metrics.EccentricityDistributionWith(eng, r.sz.FullRLCentres, 0.1, rand.New(rand.NewSource(r.seed)))
		st.End()
		return nil
	})
	if err != nil {
		return err
	}
	r.res.Attempted += 2 // the two metric calls
	if r.res.Layers != nil {
		registryLayers(before, reg.Snapshot(), r.res.Layers)
	}
	enc := gob.NewEncoder(r.sum)
	if err := enc.Encode([]stats.Series{exp, ecc}); err != nil {
		return fmt.Errorf("hash outputs: %w", err)
	}
	checkFullRL(r, g.NumNodes(), exp, ecc)
	return nil
}

// checkFullRL verifies the RL graph's size (exact at seed 1, within 2%
// elsewhere), that the sampled expansion carries nonzero
// standard errors and rises monotonically to at most 1, and that the
// eccentricity distribution's proportions sum to 1.
func checkFullRL(r *rep, nodes int, exp, ecc stats.Series) {
	want := r.sz.FullRLNodes
	if r.seed == 1 {
		r.check(nodes == want, "RL has %d nodes at seed 1, want %d", nodes, want)
	} else {
		r.check(math.Abs(float64(nodes)/float64(want)-1) <= 0.02, "RL has %d nodes, more than 2%% from %d",
			nodes, want)
	}
	nonzero := false
	for _, se := range exp.StdErr {
		nonzero = nonzero || se > 0
	}
	r.check(nonzero, "expansion carries no nonzero standard error")
	mono := exp.Len() > 1
	for i := 1; i < exp.Len(); i++ {
		mono = mono && exp.Points[i].Y >= exp.Points[i-1].Y
	}
	r.check(mono && exp.Len() > 0 && exp.Points[exp.Len()-1].Y <= 1, "expansion is not a rising fraction")
	total := 0.0
	for _, p := range ecc.Points {
		total += p.Y
	}
	r.check(math.Abs(total-1) < 1e-9, "eccentricity proportions sum to %v", total)
}
