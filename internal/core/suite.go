package core

import (
	"context"
	"fmt"
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/hierarchy"
	"topocmp/internal/metrics"
	"topocmp/internal/obs"
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
	// Parallelism is the worker-pool width of the ball engines and the
	// link-value sweeps: 0 uses runtime.NumCPU, 1 runs the stages one after
	// another on one goroutine. Results are bit-identical at every width.
	Parallelism int
	// SampleBudget, when positive, is an explicit per-metric sampling
	// budget: the number of ball centers / BFS sources the sampled
	// estimators (plain and policy expansion, eccentricity, attack/error
	// path lengths) may spend, overriding the counts derived from Sources
	// (expansion and eccentricity use 4*Sources, the tolerance curves
	// 2*Sources). Every sampled series carries a per-point standard error
	// either way; a budget at or above the node count turns the estimators
	// into full enumerations with zero-width bounds. Zero keeps the
	// Sources-derived counts, which the experiment presets run.
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

// maxEigenRank bounds EigenRank. Lanczos runs min(3k+16, n) fully
// reorthogonalized steps, so one spectrum's cost grows faster than k²: on
// the 5,747-node quick RL on a 2-core host, k = 200 took 3.4 s, k = 400
// 15 s and k = 2000 231 s, and a running stage cannot be canceled. The
// presets use 20 to 60.
const maxEigenRank = 200

// Validate rejects options no suite can run: a tolerance fraction outside
// [0, 1] asks Figure 9's removal curves to delete more nodes than the graph
// has, or fewer than none; a negative count or size silently means
// something else (every node a center, no ball cap, every link-source
// pair, an empty spectrum, no budget) under a cache key of its own, so
// identical work would miss dedup and the cache; and an eigen rank above
// maxEigenRank would hold a worker for minutes. The daemon answers such a
// request with 400 before admission.
func (o SuiteOptions) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"sources", o.Sources}, {"max ball size", o.MaxBallSize}, {"eigen rank", o.EigenRank},
		{"link sources", o.LinkSources}, {"sample budget", o.SampleBudget},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s %d: want 0 (default) or positive", f.name, f.v)
		}
	}
	if o.EigenRank > maxEigenRank {
		return fmt.Errorf("eigen rank %d: want at most %d", o.EigenRank, maxEigenRank)
	}
	for _, f := range o.ToleranceFractions {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("tolerance fraction %v outside [0, 1]", f)
		}
	}
	return nil
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
	Curves
}

// Curves is every result the suite computes on one network. The result
// cache and the serving layer store it whole beside the network's summary
// (experiments.SuiteEntry), so a new metric is one field here.
type Curves struct {
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

// RunSuite computes the full metric suite on a network. Ball growth runs
// through one shared ball.Engine per network, and on annotated networks
// through a second one for policy-induced balls, so metrics that sample
// the same centers share one traversal and one induced subgraph per
// (center, radius); per-center work fans out over the engines' worker
// pools. Every metric and every center seeds its own RNG, so results are
// bit-identical at every Parallelism, including the sequential width of 1
// (where the metric stages also run inline instead of concurrently).
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
	// when set, otherwise the Sources-derived counts.
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
	// A panic in a concurrent stage is re-raised on this goroutine once the
	// other stages return; stages that have not started by then skip.
	var stages ball.Group
	stage := func(name string, f func()) {
		run := func() {
			if ctx.Err() != nil || stages.Stopped() {
				return // canceled or failed: the partial result is discarded below
			}
			sp := opts.Span.Start(name)
			defer sp.End()
			f()
		}
		if opts.Parallelism == 1 {
			run()
			return
		}
		stages.Go(run)
	}
	stage("expansion", func() {
		res.Expansion = metrics.ExpansionWith(eng, ball.Config{
			MaxSources: srcBudget,
			Rand:       rand.New(rand.NewSource(opts.Seed)),
		})
	})
	stage("resilience", func() {
		res.Resilience = metrics.ResilienceWith(eng, curveCfg(), opts.Seed+100)
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
		// The AS(Policy)/RL(Policy) curves of Figure 2(d-f) grow
		// policy-induced balls (Appendix E) on an engine of their own, each
		// over the centers of its plain counterpart (a fresh Rand with the
		// same seed). Policy balls contain only the links on
		// policy-compliant shortest paths, which is what lowers the
		// measured resilience ("the resilience of the RL and AS graphs
		// decreases... although its qualitative behavior remains
		// unchanged"). Both curves skip balls below 3 nodes.
		peng := ball.NewPolicyEngine(g, n.policyRouting(), opts.Parallelism)
		peng.Instrument(opts.Metrics)
		peng.SetProgress(opts.Progress)
		policyCfg := func() ball.Config {
			cfg := curveCfg()
			cfg.MinBallSize = 3
			return cfg
		}
		stage("policy_expansion", func() {
			res.PolicyExpansion = metrics.ExpansionWith(peng, ball.Config{
				MaxSources: srcBudget,
				Rand:       rand.New(rand.NewSource(opts.Seed)),
			})
			res.PolicyExpansion.Name = "expansion(policy)"
		})
		stage("policy_ball_curves", func() {
			res.PolicyResilience = metrics.ResilienceWith(peng, policyCfg(), opts.Seed+100)
			res.PolicyResilience.Name = "resilience(policy)"
			res.PolicyDistortion = metrics.DistortionWith(peng, policyCfg(), 3)
			res.PolicyDistortion.Name = "distortion(policy)"
		})
	}
	stages.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}

// policyRouting returns the path-tree builder of the policy routing the
// Figure 2(d-f) variants grow their balls under: the router overlay's when
// the network has one, the annotated AS graph's otherwise.
func (n *Network) policyRouting() func(*policy.PathTree, int32) *policy.PathTree {
	if n.Overlay != nil {
		return n.Overlay.PathsInto
	}
	return n.Policy.PathsInto
}
