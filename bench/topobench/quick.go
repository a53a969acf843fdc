package main

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"

	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/obs"
	"topocmp/internal/plot"
	"topocmp/internal/stats"
)

// category names a Figure 1 network's build path for the build.* layers.
func category(name string) string {
	switch name {
	case "AS", "RL":
		return "measured"
	case "Mesh", "Random", "Tree", "Complete", "Linear":
		return "canonical"
	}
	return "generated"
}

// fixedInventory is Table 1 for the networks whose size no seed or scale
// changes: nodes and edges. Transit-Stub's node count is fixed, its edges
// (-1) are drawn.
var fixedInventory = map[string][2]int{
	"TS": {1008, -1}, "Mesh": {900, 1740}, "Tree": {1093, 1092},
	"Complete": {150, 11175}, "Linear": {500, 499},
}

// calibrationSignatures are the deterministic canonical graphs; the
// classifier is calibrated on them, so their signatures must match the
// paper at every seed.
var calibrationSignatures = []string{"Mesh", "Tree", "Complete", "Linear"}

// runQuick is a cold reproduce -quick at one worker. Set-up builds the
// Figure 1 networks, one Runner.Network call per network (the builds
// PrefetchNetworks runs at one worker). The measured phase is Prefetch plus
// every artifact call in cmd/reproduce's stage order; series go through
// plot.WriteDat into a temporary directory and every artifact is hashed.
//
// The networks are the reference instances (the set seed in sizes.Quick,
// 1 as reproduce -quick builds them); the workload seed drives everything
// the suites and panels sample: ball centres, partition randomization,
// link-value sources. Across set seeds one panel alone, the PLRG
// connectivity variants, takes from 0.8 s to 6.8 s, which would bury
// every other effect.
func runQuick(r *rep) error {
	cfg := r.sz.Quick
	cfg.Suite.Seed = r.seed
	var run *experiments.Runner
	err := r.setup(func() { run = nil }, func(sp *obs.Span) error {
		run = experiments.NewRunner(cfg)
		run.Workers = 1
		for _, name := range experiments.AllTableNames {
			b := sp.Start("build:" + category(name) + ":" + name)
			run.Network(name)
			b.End()
		}
		return nil
	})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "topobench-quick-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	before := run.Metrics().Snapshot()
	enc := gob.NewEncoder(r.sum)
	var nonFinite []string
	// emit hashes an artifact (gob keeps NaN bits, unlike JSON) and writes
	// its series, if any, as .dat files.
	emit := func(name string, v any, series ...[]stats.Series) error {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("hash %s: %w", name, err)
		}
		for i, ss := range series {
			for _, s := range ss {
				for _, p := range s.Points {
					if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
						nonFinite = append(nonFinite, name+"/"+s.Name)
						break
					}
				}
			}
			if _, err := plot.WriteDat(dir, fmt.Sprintf("%s_%d", name, i), ss); err != nil {
				return err
			}
		}
		return nil
	}
	groups := []struct {
		key   string
		names []string
	}{
		{"canonical", experiments.CanonicalNames},
		{"measured", experiments.MeasuredNames},
		{"generated", experiments.GeneratedNames},
	}
	var inventory []core.Description
	var summary []experiments.SummaryCheck
	steps := []struct {
		span string
		f    func() error
	}{
		{"panel:prefetch", nil}, // filled below: it needs its span
		{"render:table1", func() error {
			inventory = run.Table1()
			return emit("table1", inventory)
		}},
		{"render:figure2", func() error {
			for _, g := range groups {
				p := run.Figure2(g.key, g.names)
				if err := emit("fig2_"+g.key, p, p.Expansion, p.Resilience, p.Distortion); err != nil {
					return err
				}
			}
			return nil
		}},
		{"panel:figure12", func() error {
			p := run.Figure12()
			return emit("fig12", p, p.CCDF, p.Expansion, p.Resilience, p.Distortion)
		}},
		{"render:tables23", func() error {
			if err := emit("table2", run.Table2()); err != nil {
				return err
			}
			return emit("table3", run.Table3())
		}},
		{"render:figure3", func() error {
			s := run.Figure3([]string{"Tree", "Mesh", "Random", "RL", "AS", "TS", "Tiers", "Waxman", "PLRG"})
			return emit("fig3", s, s)
		}},
		{"render:table4", func() error { return emit("table4", run.Table4()) }},
		{"render:figure5", func() error { return emit("fig5", run.Figure5()) }},
		{"render:figure6to10", func() error {
			for _, g := range groups {
				names := g.names
				eig := names
				if g.key == "measured" {
					eig = append([]string{"PLRG"}, names...)
				}
				att, errTol := run.Figure9(names)
				for _, a := range []struct {
					name string
					s    []stats.Series
				}{
					{"fig6", run.Figure6(names)},
					{"fig7_eigen", run.Figure7Eigen(eig)},
					{"fig7_ecc", run.Figure7Ecc(eig)},
					{"fig8_cover", run.Figure8Cover(names)},
					{"fig8_bicon", run.Figure8Bicon(names)},
					{"fig9_attack", att},
					{"fig9_error", errTol},
					{"fig10", run.Figure10(names)},
				} {
					if err := emit(a.name+"_"+g.key, a.s, a.s); err != nil {
						return err
					}
				}
			}
			return nil
		}},
		{"panel:figure11", func() error { return emit("fig11", run.Figure11()) }},
		{"panel:figure13", func() error {
			p := run.Figure13()
			return emit("fig13", p, p.Expansion, p.Resilience, p.Distortion)
		}},
		{"panel:figure14", func() error {
			s := run.Figure14()
			return emit("fig14", s, s)
		}},
		{"panel:connectivity", func() error {
			p := run.ConnectivityVariants()
			return emit("appD", p, p.Expansion, p.Resilience, p.Distortion)
		}},
		{"panel:rewiring", func() error {
			p := run.RewiringPanel()
			return emit("nullmodel", p, p.Expansion, p.Resilience, p.Distortion)
		}},
		{"panel:extras", func() error {
			e := run.Extras()
			return emit("extras", e, e.PathLength, e.MaxFlow, e.Hop, []stats.Series{e.Coverage})
		}},
		{"render:summary", func() error {
			summary = run.Summary()
			return emit("summary", summary)
		}},
	}
	err = r.measure(func(sp *obs.Span) error {
		for _, st := range steps {
			s := sp.Start(st.span)
			var err error
			if st.f == nil {
				run.Trace = s
				run.Prefetch()
			} else {
				err = st.f()
			}
			s.End()
			r.res.Attempted++
			if err != nil {
				return fmt.Errorf("%s: %w", st.span, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if r.res.Layers != nil {
		registryLayers(before, run.Metrics().Snapshot(), r.res.Layers)
	}
	checkQuick(r, inventory, summary, nonFinite)
	return nil
}

// checkQuick verifies what must hold at every seed: the inventory lists all
// eleven networks with the fixed-size ones at their exact sizes, every check
// against the paper ran, the calibration graphs classify as the paper says,
// and no written series holds a non-finite point. How many checks match
// the paper varies with the seed, so it is a per-layer count, not a
// failure.
func checkQuick(r *rep, inventory []core.Description, summary []experiments.SummaryCheck, nonFinite []string) {
	r.check(len(inventory) == len(experiments.AllTableNames), "table 1 has %d rows, want %d",
		len(inventory), len(experiments.AllTableNames))
	for _, d := range inventory {
		r.check(d.Nodes > 0 && d.Edges > 0, "table 1: %s is empty", d.Name)
		if want, ok := fixedInventory[d.Name]; ok {
			r.check(d.Nodes == want[0] && (want[1] < 0 || d.Edges == want[1]),
				"table 1: %s has %d nodes/%d edges, want %d/%d", d.Name, d.Nodes, d.Edges, want[0], want[1])
		}
	}
	r.check(len(summary) == 20, "summary has %d checks, want 20", len(summary))
	matched := 0
	got := map[string]experiments.SummaryCheck{}
	for _, c := range summary {
		got[c.Name] = c
		if c.Match {
			matched++
		}
	}
	for _, name := range calibrationSignatures {
		c := got[name+" signature"]
		r.check(c.Match, "%s signature is %q, the paper says %q", name, c.Got, c.Expected)
	}
	r.check(len(nonFinite) == 0, "non-finite points in %v", nonFinite)
	if r.res.Layers != nil {
		r.res.Layers["quick.paper_checks_matched"] = float64(matched)
	}
}
