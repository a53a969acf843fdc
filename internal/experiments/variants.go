package experiments

import (
	"fmt"
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/gen/ba"
	"topocmp/internal/gen/brite"
	"topocmp/internal/gen/bt"
	"topocmp/internal/gen/inet"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/gen/tiers"
	"topocmp/internal/gen/transitstub"
	"topocmp/internal/gen/waxman"
	"topocmp/internal/graph"
	"topocmp/internal/hierarchy"
	"topocmp/internal/metrics"
	"topocmp/internal/stats"
)

// DegreeBasedVariants builds the Appendix D generator family (B-A, Brite,
// BT, Inet, PLRG) at a common target size.
func (r *Runner) DegreeBasedVariants() []*core.Network {
	seed := r.Cfg.Set.Seed
	n := scaledSize(9000, r.Cfg.Set.Scale, 2000)
	mk := func(off int64) *rand.Rand { return rand.New(rand.NewSource(seed + off)) }
	return []*core.Network{
		{Name: "B-A", Category: core.Generated,
			Graph: ba.MustGenerate(mk(31), ba.Params{N: n, M: 2})},
		{Name: "Brite", Category: core.Generated,
			Graph: brite.MustGenerate(mk(32), brite.Params{N: n, M: 2, Placement: brite.PlacementHeavyTailed})},
		{Name: "BT", Category: core.Generated,
			Graph: bt.MustGenerate(mk(33), bt.Params{N: n, M: 1, P: 0.47, BetaGLP: 0.64})},
		{Name: "Inet", Category: core.Generated,
			Graph: inet.MustGenerate(mk(34), inet.Params{N: n, Beta: 2.2})},
		{Name: "PLRG", Category: core.Generated,
			Graph: plrg.MustGenerate(mk(35), plrg.Params{N: n, Beta: 2.246})},
	}
}

func scaledSize(n int, scale float64, min int) int {
	if scale == 0 {
		scale = 0.3
	}
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// VariantPanel holds the Figure 12 artifacts: degree CCDFs plus the three
// basic metrics for the degree-based variants.
type VariantPanel struct {
	CCDF       []stats.Series
	Expansion  []stats.Series
	Resilience []stats.Series
	Distortion []stats.Series
}

// Figure12 computes CCDFs and the three metrics for the degree-based
// variants (Figures 2(j-l) and 12).
func (r *Runner) Figure12() VariantPanel {
	return cachedArtifact(r, "fig12", func() VariantPanel {
		var p VariantPanel
		for _, n := range r.DegreeBasedVariants() {
			p.appendNetwork(n.Name, n.Graph, r.Cfg)
		}
		return p
	})
}

func (p *VariantPanel) appendNetwork(name string, g *graph.Graph, cfg Config) {
	ccdf := stats.CCDF(g.Degrees())
	ccdf.Name = name
	p.CCDF = append(p.CCDF, ccdf)
	e, res, d := basicCurves(g, cfg)
	e.Name, res.Name, d.Name = name, name, name
	p.Expansion = append(p.Expansion, e)
	p.Resilience = append(p.Resilience, res)
	p.Distortion = append(p.Distortion, d)
}

// basicCurves computes the three basic metrics — expansion, resilience,
// distortion — on a bare graph with the suite's sampling, each from its own
// seeded RNG on its own width-1 engine, so no ball cache outlives its
// metric. The variant panels plot them; Figure 11 classifies them.
func basicCurves(g *graph.Graph, cfg Config) (e, res, d stats.Series) {
	seed := cfg.Suite.Seed
	if seed == 0 {
		seed = 1
	}
	mkCfg := func(off int64) ball.Config {
		return ball.Config{
			MaxSources:  cfg.Suite.Sources,
			MaxBallSize: cfg.Suite.MaxBallSize,
			Rand:        rand.New(rand.NewSource(seed + off)),
		}
	}
	e = metrics.ExpansionWith(ball.NewEngine(g, 1), ball.Config{MaxSources: 4 * cfg.Suite.Sources,
		Rand: rand.New(rand.NewSource(seed))})
	res = metrics.ResilienceWith(ball.NewEngine(g, 1), mkCfg(1), rand.New(rand.NewSource(seed+100)).Int63())
	d = metrics.DistortionWith(ball.NewEngine(g, 1), mkCfg(2), 3)
	return e, res, d
}

// Figure13 regenerates the "modified B-A / modified Brite" experiment of
// Appendix D.1: the B-A and Brite graphs are reconnected with the PLRG
// clone-matching method while keeping their degree sequences, and the three
// metrics are compared.
func (r *Runner) Figure13() VariantPanel {
	return cachedArtifact(r, "fig13", func() VariantPanel {
		seed := r.Cfg.Set.Seed
		n := scaledSize(9000, r.Cfg.Set.Scale, 2000)
		baG := ba.MustGenerate(rand.New(rand.NewSource(seed+31)), ba.Params{N: n, M: 2})
		briteG := brite.MustGenerate(rand.New(rand.NewSource(seed+32)),
			brite.Params{N: n, M: 2, Placement: brite.PlacementHeavyTailed})
		var p VariantPanel
		p.appendNetwork("B-A", baG, r.Cfg)
		p.appendNetwork("Modified B-A", plrg.Reconnect(rand.New(rand.NewSource(seed+41)), baG), r.Cfg)
		p.appendNetwork("Brite", briteG, r.Cfg)
		p.appendNetwork("Modified Brite", plrg.Reconnect(rand.New(rand.NewSource(seed+42)), briteG), r.Cfg)
		return p
	})
}

// Figure14 regenerates the link-value distributions of the degree-based
// variants, the moderate-hierarchy check of Appendix D.2.
func (r *Runner) Figure14() []stats.Series {
	return cachedArtifact(r, "fig14", func() []stats.Series {
		var out []stats.Series
		for _, n := range r.DegreeBasedVariants() {
			lv := hierarchy.LinkValues(n.Graph, hierarchy.Options{
				MaxSources: r.Cfg.Suite.LinkSources,
				Rand:       rand.New(rand.NewSource(r.Cfg.Set.Seed + 51)),
			})
			s := lv.RankDistribution()
			s.Name = n.Name
			out = append(out, s)
		}
		return out
	})
}

// Figure11Row is one row of the Appendix C parameter-exploration table.
type Figure11Row struct {
	Generator string
	Params    string
	Nodes     int
	AvgDegree float64
	Signature core.Signature
}

// Figure11 sweeps representative parameter rows from Appendix C for each
// generator, reporting sizes, degrees and the three-metric signature — the
// robustness claim of §4.4.
func (r *Runner) Figure11() []Figure11Row {
	return cachedArtifact(r, "fig11", r.figure11)
}

func (r *Runner) figure11() []Figure11Row {
	seed := r.Cfg.Set.Seed
	var rows []Figure11Row
	add := func(gen, params string, g *graph.Graph) {
		rows = append(rows, Figure11Row{
			Generator: gen,
			Params:    params,
			Nodes:     g.NumNodes(),
			AvgDegree: g.AvgDegree(),
			Signature: r.classifyGraph(g),
		})
	}
	mk := func(off int64) *rand.Rand { return rand.New(rand.NewSource(seed + off)) }

	for i, beta := range []float64{2.550, 2.358, 2.246} {
		g := plrg.MustGenerate(mk(int64(60+i)), plrg.Params{N: scaledSize(9500, r.Cfg.Set.Scale, 2500), Beta: beta})
		add("PLRG", fmt.Sprintf("beta=%.3f", beta), g)
	}
	tsRows := []transitstub.Params{
		transitstub.Paper(),
		{StubsPerTransit: 3, ExtraTS: 5, ExtraSS: 10, Domains: 6, PDomain: 0.55,
			TransitNodes: 6, PTransit: 0.32, StubNodes: 9, PStub: 0.248},
		{StubsPerTransit: 1, ExtraTS: 0, ExtraSS: 0, Domains: 1, PDomain: 0.5,
			TransitNodes: 50, PTransit: 0.05, StubNodes: 50, PStub: 0.05},
	}
	for i, p := range tsRows {
		g := transitstub.MustGenerate(mk(int64(70+i)), p)
		add("TS", fmt.Sprintf("%d/%d/%d dom=%d", p.StubsPerTransit, p.ExtraTS, p.ExtraSS, p.Domains), g)
	}
	tiersRows := []tiers.Params{
		tiers.Paper(),
		{MANsPerWAN: 20, LANsPerMAN: 4, WANNodes: 200, MANNodes: 20, LANNodes: 4,
			RW: 4, RM: 4, RL: 1, RMW: 3, RLM: 1},
	}
	for i, p := range tiersRows {
		if r.Cfg.Set.Scale < 0.9 {
			p.MANsPerWAN = scaledSize(p.MANsPerWAN, r.Cfg.Set.Scale, 8)
			p.WANNodes = scaledSize(p.WANNodes, r.Cfg.Set.Scale, 80)
		}
		g := tiers.MustGenerate(mk(int64(80+i)), p)
		add("Tiers", fmt.Sprintf("MANs=%d WAN=%d RMW=%d", p.MANsPerWAN, p.WANNodes, p.RMW), g)
	}
	waxRows := []struct{ alpha, beta float64 }{
		{0.005, 0.30}, {0.005, 0.10}, {0.010, 0.10},
	}
	for i, w := range waxRows {
		n := scaledSize(5000, r.Cfg.Set.Scale, 600)
		alpha := w.alpha * 5000 / float64(n)
		if alpha > 1 {
			alpha = 1
		}
		g := waxman.MustGenerate(mk(int64(90+i)), waxman.Params{N: n, Alpha: alpha, Beta: w.beta})
		add("Waxman", fmt.Sprintf("alpha=%.3f beta=%.2f", w.alpha, w.beta), g)
	}
	return rows
}

// classifyGraph runs just the three basic metrics on a bare graph.
func (r *Runner) classifyGraph(g *graph.Graph) core.Signature {
	e, res, d := basicCurves(g, r.Cfg)
	return core.Signature{
		Expansion:  core.ClassifyExpansion(e),
		Resilience: core.ClassifyResilience(res),
		Distortion: core.ClassifyDistortion(d),
	}
}

// ConnectivityPanel holds the three metrics for each PLRG connectivity
// method (Appendix D.1's final experiment): the random methods all match
// the PLRG, while deterministic connectivity produces "graphs that are
// quite different from the PLRG (and thus different from the AS and RL
// graphs)".
func (r *Runner) ConnectivityVariants() VariantPanel {
	return cachedArtifact(r, "connectivity", func() VariantPanel {
		seed := r.Cfg.Set.Seed
		n := scaledSize(9000, r.Cfg.Set.Scale, 2000)
		var p VariantPanel
		for i, c := range []plrg.Connectivity{
			plrg.CloneMatching, plrg.UniformRandom,
			plrg.ProportionalUnsatisfied, plrg.Deterministic,
		} {
			g := plrg.MustGenerate(rand.New(rand.NewSource(seed+int64(100+i))),
				plrg.Params{N: n, Beta: 2.246, Connect: c})
			p.appendNetwork(c.String(), g, r.Cfg)
		}
		return p
	})
}

// RewiringPanel runs the null-model test of the paper's central thesis:
// rewire the measured AS graph with degree-preserving double-edge swaps
// (destroying everything except the degree sequence) and compare the three
// large-scale metrics. If hierarchy and large-scale structure follow from
// the degree distribution — the paper's conclusion — the rewired graph
// keeps the AS graph's HHL signature and moderate hierarchy, while local
// clustering washes out.
func (r *Runner) RewiringPanel() VariantPanel {
	return cachedArtifact(r, "rewiring", func() VariantPanel {
		asGraph := r.Measured().AS.Graph
		rewired := plrg.DegreePreservingRewire(
			rand.New(rand.NewSource(r.Cfg.Set.Seed+61)), asGraph, 3)
		var p VariantPanel
		p.appendNetwork("AS", asGraph, r.Cfg)
		p.appendNetwork("AS rewired", rewired, r.Cfg)
		return p
	})
}
