package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/hierarchy"
	"topocmp/internal/metrics"
	"topocmp/internal/obs"
	"topocmp/internal/partition"
	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

// SuiteOptions tunes the metric-suite run. Zero values pick defaults that
// complete quickly at the repository's default experiment scales.
type SuiteOptions struct {
	Sources     int   // ball centers sampled per metric (default 24)
	MaxBallSize int   // per-ball cost cap for the expensive metrics (default 3000)
	EigenRank   int   // eigenvalues computed (default 40)
	LinkSources int   // pair sources for link values (default 384)
	Seed        int64 // base RNG seed (default 1)
	// Parallelism is the worker-pool width of the ball engine and the
	// link-value sweeps: 0 uses runtime.NumCPU, 1 runs the legacy
	// sequential path. Results are bit-identical at every width.
	Parallelism int
	// SampleBudget, when positive, is an explicit per-metric sampling
	// budget: the number of ball centers / BFS sources the sampled
	// estimators (expansion, eccentricity, attack/error path lengths) may
	// spend, overriding the legacy defaults derived from Sources
	// (expansion and eccentricity use 4*Sources, the tolerance curves
	// 2*Sources). Every sampled series carries a per-point standard error
	// either way; a budget at or above the node count turns the estimators
	// into full enumerations with zero-width bounds. Zero keeps the legacy
	// derivation, which is what the default experiment scales run.
	SampleBudget int
	// SkipHierarchy disables the link-value computation (the costliest
	// stage) when only Figure 2 style metrics are needed.
	SkipHierarchy bool
	// ToleranceFractions are the removal fractions of Figure 9; default
	// 0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20.
	ToleranceFractions []float64

	// Metrics, when non-nil, receives the suite's operation counters (the
	// ball engine's ball.* namespace and the hierarchy sweeps). Span, when
	// non-nil, becomes the parent of one child span per metric stage.
	// Progress, when non-nil, receives the ball engine's balls-done/total
	// work counters so a live /debug/progress turns this suite into a
	// completion fraction. None of the three influences results, so all
	// are excluded from CacheKey and from the manifest's config JSON.
	Metrics  *obs.Registry      `json:"-"`
	Span     *obs.Span          `json:"-"`
	Progress *obs.ProgressStage `json:"-"`
}

func (o *SuiteOptions) defaults() {
	if o.Sources == 0 {
		o.Sources = 24
	}
	if o.MaxBallSize == 0 {
		o.MaxBallSize = 3000
	}
	if o.EigenRank == 0 {
		o.EigenRank = 40
	}
	if o.LinkSources == 0 {
		o.LinkSources = 384
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ToleranceFractions == nil {
		o.ToleranceFractions = []float64{0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20}
	}
}

// CacheKey returns a canonical description of the options for the result
// cache. Parallelism is deliberately excluded: suite results are
// bit-identical at every worker-pool width (the PR-1 contract, enforced by
// TestRunSuiteParallelMatchesSequential), so a `-j N` run must hit entries
// written by a `-j 1` run and vice versa. Metrics, Span and Progress are
// excluded too — observability never changes results. Every other field
// appears; adding a result-affecting field to SuiteOptions must extend this
// string (or bump cache.SchemaVersion) so stale entries are invalidated.
func (o SuiteOptions) CacheKey() string {
	o.defaults()
	return fmt.Sprintf("suite:src=%d,ball=%d,eig=%d,link=%d,seed=%d,skiphier=%t,tol=%v,budget=%d",
		o.Sources, o.MaxBallSize, o.EigenRank, o.LinkSources, o.Seed,
		o.SkipHierarchy, o.ToleranceFractions, o.SampleBudget)
}

// SuiteResult holds every metric curve for one network.
type SuiteResult struct {
	Network *Network

	Expansion  stats.Series
	Resilience stats.Series
	Distortion stats.Series

	Eigenvalues    stats.Series
	Eccentricity   stats.Series
	VertexCover    stats.Series
	Biconnectivity stats.Series
	Attack         stats.Series
	Error          stats.Series
	Clustering     stats.Series

	// WholeGraphClustering is the single-number coefficient of §4.4.
	WholeGraphClustering float64

	// LinkValues is nil when SkipHierarchy is set.
	LinkValues *hierarchy.Result

	// Policy variants (present when the network carries annotations): the
	// AS(Policy)/RL(Policy) curves of Figure 2(d-f) and Figures 3/4.
	PolicyExpansion  stats.Series
	PolicyResilience stats.Series
	PolicyDistortion stats.Series
	PolicyLinkValues *hierarchy.Result
}

// RunSuite computes the full metric suite on a network. All ball growth
// runs through one shared ball.Engine per network, so metrics that sample
// the same centers share one BFS pass and one induced subgraph per (center,
// radius); per-center work fans out over the engine's worker pool. Every
// metric and every center seeds its own RNG, so results are bit-identical
// at every Parallelism, including the sequential width of 1 (where the
// metric stages also run inline instead of concurrently).
func RunSuite(n *Network, opts SuiteOptions) *SuiteResult {
	res, _ := RunSuiteCtx(context.Background(), n, opts)
	return res
}

// RunSuiteCtx is RunSuite with cancellation: each metric stage checks the
// context before it starts, so a canceled request stops scheduling work at
// stage granularity (a stage already running finishes its balls — the
// engine's kernels are not preemptible). On cancellation the partial result
// is discarded and ctx.Err() is returned; a nil error means every stage ran
// and the result is complete and bit-identical to RunSuite's.
func RunSuiteCtx(ctx context.Context, n *Network, opts SuiteOptions) (*SuiteResult, error) {
	opts.defaults()
	res := &SuiteResult{Network: n}
	g := n.Graph
	eng := ball.NewEngine(g, opts.Parallelism)
	eng.Instrument(opts.Metrics)
	eng.SetProgress(opts.Progress)

	// Sampling budgets for the estimator metrics: the explicit SampleBudget
	// when set, otherwise the legacy Sources-derived counts.
	srcBudget := 4 * opts.Sources
	pathBudget := 2 * opts.Sources
	if opts.SampleBudget > 0 {
		srcBudget = opts.SampleBudget
		pathBudget = opts.SampleBudget
	}

	// One center set (seed+1) for every ball-curve metric: resilience,
	// distortion, vertex cover, biconnectivity and clustering then share the
	// engine's cached profiles and ball subgraphs instead of growing five
	// sets of balls.
	curveCfg := func() ball.Config {
		return ball.Config{
			MaxSources:  opts.Sources,
			MaxBallSize: opts.MaxBallSize,
			Rand:        rand.New(rand.NewSource(opts.Seed + 1)),
		}
	}
	var wg sync.WaitGroup
	stage := func(name string, f func()) {
		run := func() {
			if ctx.Err() != nil {
				return // canceled: the partial result is discarded below
			}
			sp := opts.Span.Start(name)
			defer sp.End()
			f()
		}
		if opts.Parallelism == 1 {
			run()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	stage("expansion", func() {
		res.Expansion = metrics.ExpansionWith(eng, ball.Config{
			MaxSources: srcBudget,
			Rand:       rand.New(rand.NewSource(opts.Seed)),
		})
	})
	stage("resilience", func() {
		res.Resilience = metrics.ResilienceWith(eng, curveCfg(), partition.Options{},
			opts.Seed+100)
	})
	stage("distortion", func() { res.Distortion = metrics.DistortionWith(eng, curveCfg(), 3) })
	stage("eigenvalues", func() { res.Eigenvalues = metrics.EigenvalueSpectrum(g, opts.EigenRank) })
	stage("eccentricity", func() {
		// Same sampling stream as expansion, so the eccentricities read
		// straight off the profiles the expansion metric already grew.
		res.Eccentricity = metrics.EccentricityDistributionWith(eng, srcBudget, 0.1,
			rand.New(rand.NewSource(opts.Seed)))
	})
	stage("vertex_cover", func() { res.VertexCover = metrics.VertexCoverCurveWith(eng, curveCfg()) })
	stage("biconnectivity", func() { res.Biconnectivity = metrics.BiconnectivityCurveWith(eng, curveCfg()) })
	stage("attack_tolerance", func() {
		res.Attack = metrics.AttackTolerance(g, opts.ToleranceFractions, pathBudget)
	})
	stage("error_tolerance", func() {
		res.Error = metrics.ErrorTolerance(g, opts.ToleranceFractions, pathBudget,
			rand.New(rand.NewSource(opts.Seed+200)))
	})
	stage("clustering", func() {
		res.Clustering = metrics.ClusteringCurveWith(eng, curveCfg())
		res.WholeGraphClustering = metrics.ClusteringCoefficient(g)
	})

	if !opts.SkipHierarchy {
		stage("link_values", func() {
			// Like the paper (footnote 29), router-level graphs reduce to
			// their core (recursive removal of degree-1 nodes) before link
			// values: the full graph is computationally out of reach and
			// the core's distribution is qualitatively the same.
			lvGraph := g
			if n.Overlay != nil {
				if core, _ := g.Core(); core.NumNodes() >= 3 {
					lvGraph = core
				}
			}
			res.LinkValues = hierarchy.LinkValues(lvGraph, hierarchy.Options{
				MaxSources:  opts.LinkSources,
				Rand:        rand.New(rand.NewSource(opts.Seed + 300)),
				Parallelism: opts.Parallelism,
				Metrics:     opts.Metrics,
			})
		})
		if n.Policy != nil {
			stage("policy_link_values", func() {
				res.PolicyLinkValues = hierarchy.PolicyLinkValues(n.Policy, hierarchy.Options{
					MaxSources:  opts.LinkSources,
					Rand:        rand.New(rand.NewSource(opts.Seed + 400)),
					Parallelism: opts.Parallelism,
					Metrics:     opts.Metrics,
				})
			})
		}
	}
	if n.Policy != nil || n.Overlay != nil {
		stage("policy_expansion", func() {
			// Fresh Rand with the same seed so the policy variant samples
			// the same ball centers as the plain expansion.
			res.PolicyExpansion = policyExpansion(n, ball.Config{
				MaxSources: srcBudget,
				Rand:       rand.New(rand.NewSource(opts.Seed)),
			})
		})
		stage("policy_ball_curves", func() {
			res.PolicyResilience, res.PolicyDistortion = policyBallCurves(n, opts)
		})
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// policyBallCurves computes resilience and distortion over policy-induced
// balls, the AS(Policy)/RL(Policy) curves of Figure 2(e,f). Policy balls
// contain only the links on policy-compliant shortest paths, which is what
// lowers the measured resilience ("the resilience of the RL and AS graphs
// decreases... although its qualitative behavior remains unchanged").
func policyBallCurves(n *Network, opts SuiteOptions) (stats.Series, stats.Series) {
	g := n.Graph
	cfg := ball.Config{
		MaxSources: opts.Sources,
		Rand:       rand.New(rand.NewSource(opts.Seed + 1)),
	}
	centers := ball.Centers(g, &cfg)
	grow := func(src int32, h int) policy.Ball {
		if n.Overlay != nil {
			return n.Overlay.PolicyBall(src, h)
		}
		return n.Policy.PolicyBall(src, h)
	}
	popts := partition.Options{Rand: rand.New(rand.NewSource(opts.Seed + 100))}
	// One workspace serves the whole sequential sweep; CutSizeWith is
	// bit-identical to CutSize, it just skips the per-ball solver arenas.
	pws := partition.NewWorkspace()
	var resRaw, distRaw []stats.Point
	for _, src := range centers {
		prev := 0
		for h := 1; ; h++ {
			b := grow(src, h)
			if len(b.Nodes) == prev && h > 1 {
				break // policy reach exhausted
			}
			prev = len(b.Nodes)
			if opts.MaxBallSize > 0 && len(b.Nodes) > opts.MaxBallSize {
				break
			}
			if len(b.Nodes) < 3 {
				continue
			}
			sub := b.Subgraph()
			cut := partition.CutSizeWith(pws, sub, popts)
			resRaw = append(resRaw, stats.Point{X: float64(sub.NumNodes()), Y: float64(cut)})
			if d := metrics.SubgraphDistortion(sub, 3); d > 0 {
				distRaw = append(distRaw, stats.Point{X: float64(sub.NumNodes()), Y: d})
			}
		}
	}
	res := stats.Bucketize(resRaw, 1.45)
	res.Name = "resilience(policy)"
	dist := stats.Bucketize(distRaw, 1.45)
	dist.Name = "distortion(policy)"
	return res, dist
}

// policyExpansion computes E(h) over policy-induced balls (the AS(Policy)
// curves of Figure 2(d)).
func policyExpansion(n *Network, cfg ball.Config) stats.Series {
	g := n.Graph
	total := float64(g.NumNodes())
	centers := ball.Centers(g, &cfg)
	// Per-center cumulative reach profiles, saturated to the global
	// maximum eccentricity afterwards. The distance histogram is a slice
	// indexed by distance (distances are small dense ints; a map here
	// churns on large policy graphs), reused across centers.
	var profiles [][]float64
	var counts []int
	maxH := 0
	// One product-space tree serves every center: PathsInto recycles the
	// dist/parent/best arrays, and the tree's per-node Dist is the same
	// min-over-states the standalone Dist sweep computes.
	var pt *policy.PathTree
	nn := int32(g.NumNodes())
	for _, src := range centers {
		if n.Overlay != nil {
			pt = n.Overlay.PathsInto(pt, src)
		} else {
			pt = n.Policy.PathsInto(pt, src)
		}
		counts = counts[:0]
		ecc := 0
		for v := int32(0); v < nn; v++ {
			d := pt.Dist(v)
			if d == graph.Unreached {
				continue
			}
			di := int(d)
			for di >= len(counts) {
				counts = append(counts, 0)
			}
			counts[di]++
			if di > ecc {
				ecc = di
			}
		}
		cum := make([]float64, ecc+1)
		run := 0
		for h := 0; h <= ecc; h++ {
			run += counts[h]
			cum[h] = float64(run)
		}
		profiles = append(profiles, cum)
		if ecc > maxH {
			maxH = ecc
		}
	}
	s := stats.Series{Name: "expansion(policy)"}
	for h := 0; h <= maxH; h++ {
		sum := 0.0
		for _, cum := range profiles {
			if h < len(cum) {
				sum += cum[h]
			} else {
				sum += cum[len(cum)-1]
			}
		}
		s.Add(float64(h), sum/float64(len(profiles))/total)
	}
	return s
}
