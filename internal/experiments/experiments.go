// Package experiments regenerates every table and figure of the paper's
// evaluation. Each method of Runner corresponds to one artifact (see
// DESIGN.md's experiment index); cmd/reproduce renders them to results/
// and the repository-root benchmarks time and print them.
package experiments

import (
	"fmt"
	"sort"
	"sync"

	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/hierarchy"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

// Config selects the experiment scale.
type Config struct {
	Set   core.PaperSetOptions
	Suite core.SuiteOptions
}

// QuickConfig returns a configuration sized for CI-style runs: networks at
// 0.12x the paper's sizes. It matches all 20 of the paper's checks. A cold
// `reproduce -quick` on a 2-core host (2026-10-19, three runs each) took
// 3.0 s at 0.35-0.46 GB peak RSS with -j 1, and 2.1-2.2 s at 0.44-0.49 GB
// with -j 2.
func QuickConfig(seed int64) Config {
	return Config{
		Set: core.PaperSetOptions{Seed: seed, Scale: 0.12},
		Suite: core.SuiteOptions{
			Sources: 12, MaxBallSize: 1500, EigenRank: 20,
			LinkSources: 384, Seed: seed,
		},
	}
}

// FullConfig returns the largest preset: networks at 0.45x the paper's
// sizes (scale 1.0 is the paper's own; -scale 1.0 selects it). It matches
// all 20 checks at seed 1 and 19 at seed 2, where Tiers' resilience reads
// Low. A cold `reproduce -full -j 2` on a 2-core host (2026-10-19, three
// runs) took 7.7-7.8 s at 0.68-1.02 GB peak RSS.
func FullConfig(seed int64) Config {
	return Config{
		Set: core.PaperSetOptions{Seed: seed, Scale: 0.45},
		Suite: core.SuiteOptions{
			Sources: 24, MaxBallSize: 2500, EigenRank: 60,
			LinkSources: 512, Seed: seed,
		},
	}
}

// Runner builds the network set and memoizes per-network suite results so
// every figure can reuse them. Work is lazy by default (each accessor
// builds exactly what it needs); Prefetch schedules the whole inventory
// concurrently under a shared worker budget. All methods are safe for
// concurrent use, and results are bit-identical however the work is
// scheduled: every network and every suite seeds its own RNGs.
type Runner struct {
	Cfg Config
	// Workers is the pipeline's total concurrency budget (cmd/reproduce's
	// -j flag): Prefetch fans network builds and suite runs out under this
	// many tokens, and suite-internal parallelism draws from the same
	// budget so nested parallelism never oversubscribes cores. 0 uses
	// NumCPU, 1 runs the whole pipeline sequentially.
	Workers int
	// Cache is the optional content-addressed result store; nil (the
	// default) recomputes everything in-process.
	Cache *cache.Store
	// Trace, when non-nil, becomes the parent of the pipeline's spans: one
	// net:<name> span per scheduled network with build:<name> and
	// suite:<name> children, the suite span fanning into per-metric stage
	// spans. Nil (the default) disables tracing at zero cost.
	Trace *obs.Span
	// Progress, when non-nil, receives one live stage per network
	// (net:<name>): pending when registered, cached when the result store
	// satisfied it, running/done around a real build+suite, with the ball
	// engine's balls-done/total counters feeding the stage's completion
	// fraction. Nil (the default) disables progress tracking at zero cost.
	Progress *obs.Progress

	mu        sync.Mutex
	onces     map[string]*sync.Once
	measured  *core.MeasuredSet
	nets      map[string]*core.Network
	suites    map[string]*core.SuiteResult
	summaries map[string]*NetworkSummary

	// The runner's operation counters live in its metrics registry, so the
	// pipeline summary, Stats() and the run manifest all read one source.
	metrics   *obs.Registry
	netBuilds *obs.Counter
	suiteRuns *obs.Counter
}

// NewRunner returns a runner for the configuration.
func NewRunner(cfg Config) *Runner {
	m := obs.NewRegistry()
	return &Runner{
		Cfg:       cfg,
		onces:     map[string]*sync.Once{},
		nets:      map[string]*core.Network{},
		suites:    map[string]*core.SuiteResult{},
		summaries: map[string]*NetworkSummary{},
		metrics:   m,
		netBuilds: m.Counter("pipeline.network_builds"),
		suiteRuns: m.Counter("pipeline.suite_runs"),
	}
}

// Metrics returns the runner's metrics registry. It always exists —
// counting costs one atomic add per pipeline operation — and is shared
// with the suite runs, the ball engines, the measurement sweeps and (once
// Instrumented) the cache store, so one snapshot describes the whole run.
func (r *Runner) Metrics() *obs.Registry { return r.metrics }

// onceFor returns the named once-guard, creating it on first use. Every
// build/run/restore step is guarded by one, so concurrent accessors and the
// Prefetch scheduler never duplicate work.
func (r *Runner) onceFor(name string) *sync.Once {
	r.mu.Lock()
	defer r.mu.Unlock()
	o := r.onces[name]
	if o == nil {
		o = new(sync.Once)
		r.onces[name] = o
	}
	return o
}

// progressStage returns the network's live progress stage, registering it
// on first use. A nil Progress hands out a nil stage whose methods no-op,
// so untracked runners pay one nil check here.
func (r *Runner) progressStage(name string) *obs.ProgressStage {
	return r.Progress.Register("net:" + name)
}

// Measured returns (building on first use) the simulated measurement
// pipeline products. The pipeline is one unit — BGP collection and the
// traceroute sweep share a RNG stream — so it counts as a single network
// build producing both AS and RL.
func (r *Runner) Measured() *core.MeasuredSet {
	r.onceFor("measured").Do(func() {
		r.netBuilds.Add(1)
		opts := r.Cfg.Set
		opts.Metrics = r.metrics
		ms := core.BuildMeasured(opts)
		r.mu.Lock()
		r.measured = ms
		r.mu.Unlock()
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.measured
}

// Network returns the named network (building it on first use), or nil.
func (r *Runner) Network(name string) *core.Network {
	r.onceFor("net:" + name).Do(func() {
		var n *core.Network
		switch name {
		case "AS":
			n = r.Measured().AS
		case "RL":
			n = r.Measured().RL
		default:
			opts := r.Cfg.Set
			opts.Metrics = r.metrics
			if n = core.BuildNetwork(name, opts); n != nil {
				r.netBuilds.Add(1)
			}
		}
		r.mu.Lock()
		r.nets[name] = n
		r.mu.Unlock()
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nets[name]
}

// Suite returns the memoized metric-suite result for the named network,
// restoring it from the cache or computing it on first use.
func (r *Runner) Suite(name string) *core.SuiteResult {
	return r.runSuite(name, r.Cfg.Suite.Parallelism, r.Trace)
}

// runSuite is Suite with an explicit engine width (Prefetch divides its
// worker budget across pending suites; the width never changes the result)
// and an explicit trace parent. Cache restores never open a span — the
// suite:<name> span exists exactly when the suite was actually computed —
// and the network's progress stage transitions the same way: cached on a
// restore, running→done around a real computation.
func (r *Runner) runSuite(name string, par int, parent *obs.Span) *core.SuiteResult {
	r.onceFor("suite:" + name).Do(func() {
		st := r.progressStage(name)
		if r.tryRestore(name) {
			st.Cached()
			return
		}
		st.Run()
		n := r.Network(name)
		if n == nil {
			return // leave the memo empty; the caller panics below
		}
		opts := r.Cfg.Suite
		opts.Parallelism = par
		opts.Metrics = r.metrics
		opts.Progress = st
		sp := parent.Start("suite:" + name)
		sp.SetAttr("network", name)
		defer sp.End()
		opts.Span = sp
		r.suiteRuns.Add(1)
		res := core.RunSuite(n, opts)
		sum := summarize(n)
		r.mu.Lock()
		r.suites[name] = res
		r.summaries[name] = sum
		r.mu.Unlock()
		st.Done()
		// Best-effort persist: a failed write only costs a recompute later.
		r.Cache.Put(r.suiteKey(name), MakeSuiteEntry(res, sum)) //nolint:errcheck
	})
	r.mu.Lock()
	res := r.suites[name]
	r.mu.Unlock()
	if res == nil {
		panic(fmt.Sprintf("experiments: unknown network %q", name))
	}
	return res
}

// Groups of the paper's figure panels.
var (
	CanonicalNames = []string{"Tree", "Mesh", "Random"}
	MeasuredNames  = []string{"RL", "AS"}
	GeneratedNames = []string{"TS", "Tiers", "Waxman", "PLRG"}
	AllTableNames  = []string{"AS", "RL", "PLRG", "TS", "Tiers", "Waxman",
		"Mesh", "Random", "Tree", "Complete", "Linear"}
)

// Table1 regenerates the Figure 1 inventory table. It reads the cached
// network summaries, so a warm-cache run renders it without building a
// single graph.
func (r *Runner) Table1() []core.Description {
	var out []core.Description
	for _, name := range AllTableNames {
		out = append(out, r.summaryOf(name).Desc)
	}
	return out
}

// Figure2Panel holds one panel (row of Figure 2) for a network group.
type Figure2Panel struct {
	Group      string
	Expansion  []stats.Series
	Resilience []stats.Series
	Distortion []stats.Series
}

// Figure2 regenerates the three-metric panels for the given group. For the
// measured group the policy-routing expansion variants are included, as in
// Figure 2(d).
func (r *Runner) Figure2(group string, names []string) Figure2Panel {
	p := Figure2Panel{Group: group}
	for _, name := range names {
		res := r.Suite(name)
		e := res.Expansion
		e.Name = name
		p.Expansion = append(p.Expansion, e)
		if res.PolicyExpansion.Len() > 0 {
			pe := res.PolicyExpansion
			pe.Name = name + "(Policy)"
			p.Expansion = append(p.Expansion, pe)
		}
		rs := res.Resilience
		rs.Name = name
		p.Resilience = append(p.Resilience, rs)
		if res.PolicyResilience.Len() > 0 {
			pr := res.PolicyResilience
			pr.Name = name + "(Policy)"
			p.Resilience = append(p.Resilience, pr)
		}
		d := res.Distortion
		d.Name = name
		p.Distortion = append(p.Distortion, d)
		if res.PolicyDistortion.Len() > 0 {
			pd := res.PolicyDistortion
			pd.Name = name + "(Policy)"
			p.Distortion = append(p.Distortion, pd)
		}
	}
	return p
}

// Table2 regenerates the §3.2.1 five-network calibration table.
func (r *Runner) Table2() []core.Row {
	var rows []core.Row
	for _, name := range []string{"Mesh", "Random", "Tree", "Complete", "Linear"} {
		rows = append(rows, core.BuildRow(r.Suite(name)))
	}
	return rows
}

// Table3 regenerates the §4.4 classification table over measured and
// generated networks (plus the canonical rows for context).
func (r *Runner) Table3() []core.Row {
	var rows []core.Row
	for _, name := range AllTableNames {
		rows = append(rows, core.BuildRow(r.Suite(name)))
	}
	return rows
}

// Figure3 regenerates the link-value rank distributions (Figures 3 and 4
// share the data; only the axis scaling differs). Policy variants are
// included for the measured networks.
func (r *Runner) Figure3(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		res := r.Suite(name)
		if res.LinkValues == nil {
			continue
		}
		s := res.LinkValues.RankDistribution()
		s.Name = name
		out = append(out, s)
		if res.PolicyLinkValues != nil {
			ps := res.PolicyLinkValues.RankDistribution()
			ps.Name = name + "(Policy)"
			out = append(out, ps)
		}
	}
	return out
}

// Table4 regenerates the §5.1 strict/moderate/loose grouping.
type HierarchyRow struct {
	Name  string
	Class hierarchy.Class
}

// Table4 returns hierarchy groupings for the standard networks.
func (r *Runner) Table4() []HierarchyRow {
	var rows []HierarchyRow
	for _, name := range []string{"Mesh", "Random", "Tree", "AS", "RL", "PLRG", "Tiers", "TS", "Waxman"} {
		res := r.Suite(name)
		if res.LinkValues == nil {
			continue
		}
		rows = append(rows, HierarchyRow{name, hierarchy.Classify(res.LinkValues)})
	}
	return rows
}

// Figure5Row is one bar of the correlation chart.
type Figure5Row struct {
	Name        string
	Correlation float64
}

// Figure5 regenerates the link-value/min-degree correlations, including the
// policy variants for the measured graphs, sorted descending like the
// paper's bar chart.
func (r *Runner) Figure5() []Figure5Row {
	var rows []Figure5Row
	for _, name := range []string{"PLRG", "Waxman", "Random", "AS", "TS", "Mesh", "Tiers", "RL", "Tree"} {
		res := r.Suite(name)
		if res.LinkValues == nil {
			continue
		}
		sum := r.summaryOf(name)
		deg := sum.Degrees
		if name == "RL" {
			// Link values were computed on the core (footnote 29);
			// correlate against the core's degrees.
			deg = sum.CoreDegrees
		}
		rows = append(rows, Figure5Row{name, res.LinkValues.DegreeCorrelationDegrees(deg)})
		if res.PolicyLinkValues != nil {
			rows = append(rows, Figure5Row{
				name + "(Policy)",
				res.PolicyLinkValues.DegreeCorrelationDegrees(sum.Degrees),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Correlation > rows[j].Correlation })
	return rows
}

// Figure6 regenerates the degree CCDFs of Appendix A for a network group.
func (r *Runner) Figure6(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		s := stats.CCDF(r.summaryOf(name).Degrees)
		s.Name = name
		out = append(out, s)
	}
	return out
}

// Figure7Eigen regenerates the eigenvalue-vs-rank plots.
func (r *Runner) Figure7Eigen(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		s := r.Suite(name).Eigenvalues
		s.Name = name
		out = append(out, s)
	}
	return out
}

// Figure7Ecc regenerates the node-diameter (eccentricity) distributions.
func (r *Runner) Figure7Ecc(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		s := r.Suite(name).Eccentricity
		s.Name = name
		out = append(out, s)
	}
	return out
}

// Figure8Cover regenerates the vertex-cover-vs-ball-size plots.
func (r *Runner) Figure8Cover(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		s := r.Suite(name).VertexCover
		s.Name = name
		out = append(out, s)
	}
	return out
}

// Figure8Bicon regenerates the biconnectivity plots.
func (r *Runner) Figure8Bicon(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		s := r.Suite(name).Biconnectivity
		s.Name = name
		out = append(out, s)
	}
	return out
}

// Figure9 regenerates attack (targeted) and error (random) tolerance.
func (r *Runner) Figure9(names []string) (attack, errTol []stats.Series) {
	for _, name := range names {
		a := r.Suite(name).Attack
		a.Name = name + ".att"
		attack = append(attack, a)
		e := r.Suite(name).Error
		e.Name = name + ".err"
		errTol = append(errTol, e)
	}
	return attack, errTol
}

// Figure10 regenerates the clustering-coefficient-vs-ball-size plots.
func (r *Runner) Figure10(names []string) []stats.Series {
	var out []stats.Series
	for _, name := range names {
		s := r.Suite(name).Clustering
		s.Name = name
		out = append(out, s)
	}
	return out
}

// SummaryChecks compares the reproduction against the paper's qualitative
// claims; the returned map is the backbone of EXPERIMENTS.md.
type SummaryCheck struct {
	Name     string
	Expected string
	Got      string
	Match    bool
}

// Summary checks all §4.4 signatures and §5.1 groupings.
func (r *Runner) Summary() []SummaryCheck {
	var out []SummaryCheck
	for _, name := range AllTableNames {
		row := core.BuildRow(r.Suite(name))
		out = append(out, SummaryCheck{
			Name:     name + " signature",
			Expected: core.ExpectedSignatures[name],
			Got:      row.Signature.String(),
			Match:    row.MatchesPaper(),
		})
		if want, ok := core.ExpectedHierarchy[name]; ok {
			out = append(out, SummaryCheck{
				Name:     name + " hierarchy",
				Expected: want.String(),
				Got:      row.Hierarchy.String(),
				Match:    row.HierarchyMatchesPaper(),
			})
		}
	}
	return out
}
