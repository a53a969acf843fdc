// Command reproduce regenerates every table and figure of the paper into an
// output directory: gnuplot-ready .dat files per figure panel, text tables,
// ASCII previews, and a summary comparing each qualitative result against
// the paper's published tables.
//
// Usage:
//
//	reproduce [-out results] [-seed 1] [-scale 0.3] [-full] [-quick]
//	          [-j N] [-cache dir] [-trace file] [-metrics]
//	          [-http addr] [-progress]
//	          [-cpuprofile file] [-memprofile file]
//
// -j sets the pipeline's worker budget (0 = all cores, 1 = sequential);
// output files are byte-identical at every width. -cache names an on-disk
// result cache: a re-run with an unchanged configuration restores every
// suite result from it and performs zero network builds and zero suite
// runs, while a changed seed or scale invalidates only the affected
// entries.
//
// -trace exports the run's span tree as Chrome trace-event JSON (open it at
// ui.perfetto.dev) and prints it as an indented tree; -metrics prints the
// final metrics registry. -cpuprofile/-memprofile write pprof profiles of
// the whole run.
//
// -http addr serves the live observability plane while the run executes:
// /metrics (Prometheus text exposition with histogram buckets),
// /debug/progress (JSON stage DAG with completion fractions and ETA),
// /debug/trace (live span-tree snapshot; ?format=chrome for trace-event
// JSON) and /debug/pprof/*. Port 0 picks a free port; the chosen address
// is printed on startup. -progress renders a live one-line progress
// summary on stderr.
//
// -metrics or -http also run the background time-series sampler (one
// registry + heap/RSS/GC snapshot per 250ms into a bounded ring) and
// write <out>/run_timeseries.json plus <out>/run.json, the run manifest.
// With every observability flag off the output directory is byte-identical
// to an instrumented run — observability never changes results.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/obs"
	"topocmp/internal/plot"
	"topocmp/internal/stats"
)

func main() {
	out := flag.String("out", "results", "output directory")
	seed := flag.Int64("seed", 1, "experiment seed")
	scale := flag.String("scale", "", "network scale override: a multiplier > 0, "+
		"or a preset (\"full-rl\" = the real RL map's 170k nodes, \"1m\" = million-node generators); "+
		"empty = per-mode default")
	full := flag.Bool("full", false, "paper-scale run (tens of minutes)")
	quick := flag.Bool("quick", false, "CI-scale run (a few minutes)")
	workers := flag.Int("j", 0, "pipeline worker budget (0 = all cores, 1 = sequential)")
	cacheDir := flag.String("cache", "", "result cache directory (empty = no caching)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file")
	metrics := flag.Bool("metrics", false, "print the final metrics table and write <out>/run.json")
	httpAddr := flag.String("http", "", "serve /metrics, /debug/progress, /debug/trace and /debug/pprof/ "+
		"on this address while the run executes (e.g. 127.0.0.1:6060; port 0 picks a free port)")
	progressLine := flag.Bool("progress", false, "render a live one-line progress summary on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *quick && *full {
		fmt.Fprintln(os.Stderr, "reproduce: -quick and -full are mutually exclusive; pick one")
		os.Exit(2)
	}
	cfg := experiments.Config{
		Set:   core.PaperSetOptions{Seed: *seed, Scale: 0.25},
		Suite: core.SuiteOptions{Sources: 16, MaxBallSize: 2000, EigenRank: 40, LinkSources: 448, Seed: *seed},
	}
	if *quick {
		cfg = experiments.QuickConfig(*seed)
	}
	if *full {
		cfg = experiments.FullConfig(*seed)
	}
	if *scale != "" {
		s, err := parseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reproduce:", err)
			os.Exit(2)
		}
		cfg.Set.Scale = s
	}
	cfg.Suite.Parallelism = *workers
	if err := cfg.Suite.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		os.Exit(2)
	}
	os.Exit(realMain(cfg, *workers, *cacheDir, *out,
		obsOptions{
			Trace:    *traceFile != "",
			Metrics:  *metrics,
			Progress: *progressLine,
			HTTPAddr: *httpAddr,
			Sample:   *metrics || *httpAddr != "",
		},
		*traceFile, *cpuprofile, *memprofile))
}

// maxScale bounds the accepted -scale multiplier. The largest useful preset
// ("1m") is 100; anything far beyond it indicates a typo (a stray exponent
// would otherwise attempt a build with quadrillions of nodes).
const maxScale = 1000

// parseScale resolves a -scale argument: a named preset from
// core.ScalePresets or a positive finite multiplier within sanity bounds.
func parseScale(arg string) (float64, error) {
	if s, ok := core.ScalePresets[arg]; ok {
		return s, nil
	}
	s, err := strconv.ParseFloat(arg, 64)
	if err != nil {
		names := make([]string, 0, len(core.ScalePresets))
		for name := range core.ScalePresets {
			names = append(names, name)
		}
		sort.Strings(names)
		return 0, fmt.Errorf("invalid -scale %q: want a number > 0 or a preset (%s)",
			arg, strings.Join(names, ", "))
	}
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
		return 0, fmt.Errorf("invalid -scale %v: must be a finite value > 0", s)
	}
	if s > maxScale {
		return 0, fmt.Errorf("invalid -scale %v: exceeds the sanity bound %d "+
			"(the largest preset, 1m, is 100)", s, maxScale)
	}
	return s, nil
}

// realMain wraps run with the profiling and trace-export plumbing; it
// returns the process exit code so deferred profile writers always run.
func realMain(cfg experiments.Config, workers int, cacheDir, out string,
	o obsOptions, traceFile, cpuprofile, memprofile string) int {

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "reproduce:", err)
		return 1
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	_, tr, err := run(cfg, workers, cacheDir, out, o)
	if err != nil {
		return fail(err)
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return fail(err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(err)
		}
	}
	return 0
}

// obsOptions selects the run's observability outputs. The zero value — the
// default — changes nothing observable: stage banners and the final pipeline
// line are rendered from the same span tree and metrics registry either way,
// and the output directory stays byte-identical (run.json and
// run_timeseries.json only appear when an option is on).
type obsOptions struct {
	Trace    bool   // render the span tree to stdout (main also exports Chrome JSON)
	Metrics  bool   // print the metrics table to stdout
	Progress bool   // render a live one-line progress summary on stderr
	HTTPAddr string // serve the live debug endpoints on this address ("" = off)
	Sample   bool   // run the time-series sampler; writes <out>/run_timeseries.json
}

// run renders every artifact into out and returns the runner (for its
// pipeline statistics) and the tracer holding the run's span tree. Stage
// banners, timings and cache counters go to stdout only — the files under
// out are byte-identical across worker widths, cache states and observability
// options (run.json exists only when an obsOption is on).
func run(cfg experiments.Config, workers int, cacheDir, out string, o obsOptions) (*experiments.Runner, *obs.Tracer, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	r := experiments.NewRunner(cfg)
	r.Workers = workers
	if cacheDir != "" {
		store, err := cache.Open(cacheDir)
		if err != nil {
			return nil, nil, err
		}
		store.Instrument(r.Metrics())
		r.Cache = store
	}
	r.Metrics().Gauge("pipeline.workers").Set(int64(workers))

	// The span tree is always collected (it is cheap — one span per stage
	// plus a handful per computed network) and is the single source of the
	// stage banners, the timing lines, the final total, and — when enabled —
	// the stdout tree, the Chrome export and the manifest stage list.
	tr := obs.NewTracer("reproduce")
	root := tr.Root()
	tr.OnStart = func(s *obs.Span) {
		if s.Depth() == 1 {
			fmt.Printf("== %s ==\n", s.Name())
		}
	}
	tr.OnEnd = func(s *obs.Span) {
		if s.Depth() == 1 {
			fmt.Printf("   %-28s %8.1fs\n", s.Name(), s.Duration().Seconds())
		}
	}
	// The figure renderers group networks three ways; several stages share it.
	groups := []struct {
		key   string
		names []string
	}{
		{"canonical", experiments.CanonicalNames},
		{"measured", experiments.MeasuredNames},
		{"generated", experiments.GeneratedNames},
	}

	// Every artifact stage, declared up front in display order. Declaring
	// the table (rather than running each call site inline) lets the
	// progress DAG register every stage before the first one runs, so
	// /debug/progress shows the whole pipeline — pending, running, cached,
	// done — from the first request.
	prog := obs.NewProgress()
	r.Progress = prog
	stages := []struct {
		title string
		f     func(sp *obs.Span) error
	}{

		{"Pipeline: networks and suites", func(sp *obs.Span) error {
			r.Trace = sp
			r.Prefetch()
			return nil
		}},

		{"Table 1: network inventory", func(sp *obs.Span) error {
			return writeTable1(r, out)
		}},

		{"Figure 2: expansion/resilience/distortion", func(sp *obs.Span) error {
			for _, g := range groups {
				p := r.Figure2(g.key, g.names)
				if err := writePanel(out, "fig2_"+g.key, p.Expansion, p.Resilience, p.Distortion); err != nil {
					return err
				}
				preview(p.Expansion, "expansion "+g.key, plot.Options{YScale: plot.Log})
			}
			return nil
		}},
		{"Figure 2 (degree-based variants, j-l)", func(sp *obs.Span) error {
			vp := r.Figure12()
			if err := writePanel(out, "fig2_variants", vp.Expansion, vp.Resilience, vp.Distortion); err != nil {
				return err
			}
			_, err := plot.WriteDat(out, "fig12_ccdf", vp.CCDF)
			return err
		}},

		{"Tables 2 and 3: signatures", func(sp *obs.Span) error {
			if err := writeRows(filepath.Join(out, "table2_canonical.txt"), r.Table2()); err != nil {
				return err
			}
			rows := r.Table3()
			if err := writeRows(filepath.Join(out, "table3_classification.txt"), rows); err != nil {
				return err
			}
			return core.WriteTable(os.Stdout, rows)
		}},

		{"Figures 3/4: link value distributions", func(sp *obs.Span) error {
			lv := r.Figure3([]string{"Tree", "Mesh", "Random", "RL", "AS", "TS", "Tiers", "Waxman", "PLRG"})
			_, err := plot.WriteDat(out, "fig3_linkvalues", lv)
			return err
		}},

		{"Table 4: hierarchy groups", func(sp *obs.Span) error {
			return writeTable4(r, out)
		}},

		{"Figure 5: link value / degree correlation", func(sp *obs.Span) error {
			return writeFigure5(r, out)
		}},

		{"Figure 6: degree distributions", func(sp *obs.Span) error {
			for _, g := range groups {
				if _, err := plot.WriteDat(out, "fig6_"+g.key, r.Figure6(g.names)); err != nil {
					return err
				}
			}
			return nil
		}},

		{"Figure 7: eigenvalues and eccentricity", func(sp *obs.Span) error {
			for _, g := range groups {
				names := g.names
				if g.key == "measured" {
					names = append([]string{"PLRG"}, names...)
				}
				if _, err := plot.WriteDat(out, "fig7_eigen_"+g.key, r.Figure7Eigen(names)); err != nil {
					return err
				}
				if _, err := plot.WriteDat(out, "fig7_ecc_"+g.key, r.Figure7Ecc(names)); err != nil {
					return err
				}
			}
			return nil
		}},

		{"Figure 8: vertex cover and biconnectivity", func(sp *obs.Span) error {
			for _, g := range groups {
				if _, err := plot.WriteDat(out, "fig8_cover_"+g.key, r.Figure8Cover(g.names)); err != nil {
					return err
				}
				if _, err := plot.WriteDat(out, "fig8_bicon_"+g.key, r.Figure8Bicon(g.names)); err != nil {
					return err
				}
			}
			return nil
		}},

		{"Figure 9: attack and error tolerance", func(sp *obs.Span) error {
			for _, g := range groups {
				att, errTol := r.Figure9(g.names)
				if _, err := plot.WriteDat(out, "fig9_attack_"+g.key, att); err != nil {
					return err
				}
				if _, err := plot.WriteDat(out, "fig9_error_"+g.key, errTol); err != nil {
					return err
				}
			}
			return nil
		}},

		{"Figure 10: clustering", func(sp *obs.Span) error {
			for _, g := range groups {
				if _, err := plot.WriteDat(out, "fig10_"+g.key, r.Figure10(g.names)); err != nil {
					return err
				}
			}
			return nil
		}},

		{"Figure 11: parameter space", func(sp *obs.Span) error {
			return writeFigure11(r, out)
		}},

		{"Figure 13: PLRG reconnection", func(sp *obs.Span) error {
			rp := r.Figure13()
			return writePanel(out, "fig13", rp.Expansion, rp.Resilience, rp.Distortion)
		}},

		{"Figure 14: variant link values", func(sp *obs.Span) error {
			_, err := plot.WriteDat(out, "fig14_linkvalues", r.Figure14())
			return err
		}},

		{"Appendix D.1: connectivity methods", func(sp *obs.Span) error {
			cp := r.ConnectivityVariants()
			return writePanel(out, "appD_connectivity", cp.Expansion, cp.Resilience, cp.Distortion)
		}},

		{"Null model: degree-preserving rewiring", func(sp *obs.Span) error {
			rwp := r.RewiringPanel()
			return writePanel(out, "nullmodel_rewire", rwp.Expansion, rwp.Resilience, rwp.Distortion)
		}},

		{"Extras (beyond the paper)", func(sp *obs.Span) error {
			return writeExtras(r.Extras(), out)
		}},

		{"Summary vs. paper", func(sp *obs.Span) error {
			return writeSummary(r, out)
		}},
	}
	for _, sd := range stages {
		prog.Register(sd.title)
	}

	// The live plane starts before the first stage so a mid-run scrape sees
	// the real state of the pipeline, and stops (idempotently, including the
	// error paths) once the last stage ends.
	if o.HTTPAddr != "" {
		ds, err := obs.StartDebugServer(o.HTTPAddr, r.Metrics(), prog, tr)
		if err != nil {
			return r, tr, err
		}
		defer ds.Close()
		fmt.Printf("debug server listening on http://%s (/metrics /debug/progress /debug/trace /debug/pprof/)\n", ds.Addr())
	}
	var smp *obs.Sampler
	stopSampler := func() {}
	if o.Sample {
		smp = obs.NewSampler(r.Metrics(), 0, 0)
		smp.Start()
		var once sync.Once
		stopSampler = func() { once.Do(smp.Stop) }
		defer stopSampler()
	}
	stopTTY := func() {}
	if o.Progress {
		stop := startProgressLine(prog, os.Stderr)
		var once sync.Once
		stopTTY = func() { once.Do(stop) }
		defer stopTTY()
	}

	for _, sd := range stages {
		st := prog.Register(sd.title)
		st.Run()
		sp := root.Start(sd.title)
		err := sd.f(sp)
		sp.End()
		// Post-stage heap/RSS gauges: with -metrics on, the registry table
		// becomes a per-stage memory trajectory of the run. A no-op (nil
		// registry internals aside, gauges never alter results or outputs).
		r.Metrics().CaptureMem("mem." + stageSlug(sd.title))
		if err != nil {
			return r, tr, err
		}
		st.Done()
	}
	stopTTY()

	root.End()
	st := r.Stats()
	fmt.Printf("pipeline: %d network builds, %d suite runs", st.NetworkBuilds, st.SuiteRuns)
	if r.Cache != nil {
		fmt.Printf(", cache %d hits / %d misses / %d writes", st.CacheHits, st.CacheMisses, st.CachePuts)
		if st.CacheDecodeErrors > 0 {
			fmt.Printf(" (%d corrupt entries evicted)", st.CacheDecodeErrors)
		}
	}
	fmt.Printf(", total %.1fs\n", root.Duration().Seconds())

	if o.Metrics {
		fmt.Println("-- metrics --")
		r.Metrics().Snapshot().WriteTable(os.Stdout)
	}
	if o.Trace {
		fmt.Println("-- trace --")
		tr.WriteTree(os.Stdout) //nolint:errcheck // stdout rendering is best-effort
	}
	if smp != nil {
		stopSampler() // records the final sample before the ring is exported
		if err := smp.WriteFile(filepath.Join(out, "run_timeseries.json")); err != nil {
			return r, tr, err
		}
	}
	if o.Metrics || o.Trace || o.Sample {
		man := &obs.Manifest{
			Tool:               "reproduce",
			GoVersion:          runtime.Version(),
			CacheSchemaVersion: cache.SchemaVersion,
			Seed:               cfg.Suite.Seed,
			Workers:            workers,
			CacheDir:           cacheDir,
			Config:             cfg,
			Stages:             obs.StageTimings(root),
			TotalSeconds:       root.Duration().Seconds(),
			Metrics:            r.Metrics().Snapshot(),
		}
		if err := man.Write(filepath.Join(out, "run.json")); err != nil {
			return r, tr, err
		}
	}
	return r, tr, nil
}

// writeExtras renders the beyond-the-paper artifacts: footnote 22's two
// metrics, hop plots, small-world coefficients, Weibull tail fits of the
// degree CCDFs, the AS size/degree coupling and the BGP vantage-coverage
// curve.
func writeExtras(e experiments.ExtrasData, out string) error {
	if _, err := plot.WriteDat(out, "extra_ballpathlen", e.PathLength); err != nil {
		return err
	}
	if _, err := plot.WriteDat(out, "extra_surfaceflow", e.MaxFlow); err != nil {
		return err
	}
	if _, err := plot.WriteDat(out, "extra_hopplot", e.Hop); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(out, "extras.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Network\tSmallWorldSigma\tClustering\tAPL\tWeibullK\tWeibullR2")
	for _, row := range e.Rows {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.2f\t%.2f\t%.2f\n",
			row.Name, row.Sigma, row.Clustering, row.PathLength, row.WeibullK, row.WeibullR2)
	}
	fmt.Fprintf(tw, "\nAS size/degree correlation (Tangmunarunkit et al. 2001): %.3f\n",
		e.SizeDegreeCorrelation)
	cov := e.Coverage
	fmt.Fprintf(tw, "BGP coverage: 1 vantage %.2f -> %d vantages %.2f (Chang et al. 2002)\n",
		cov.Points[0].Y, cov.Len(), cov.Points[cov.Len()-1].Y)
	if err := tw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// stageSlug compresses a stage banner title into a metric-name segment:
// lowercase alphanumerics with runs of everything else collapsed to one
// underscore ("Figure 2: expansion/..." -> "figure_2_expansion_...").
func stageSlug(title string) string {
	var b strings.Builder
	pendingSep := false
	for _, r := range strings.ToLower(title) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			if pendingSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			pendingSep = false
			b.WriteRune(r)
		default:
			pendingSep = true
		}
	}
	return b.String()
}

// startProgressLine launches a goroutine repainting one status line on w
// (an ANSI terminal — \r plus erase-to-end) every 200ms and returns a stop
// function that erases the line and waits for the goroutine to exit.
func startProgressLine(p *obs.Progress, w io.Writer) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintf(w, "\r\x1b[K%s", progressLine(p.Snapshot()))
			case <-stop:
				fmt.Fprint(w, "\r\x1b[K")
				return
			}
		}
	}()
	return func() { close(stop); <-done }
}

// progressLine renders one snapshot as a single status line: overall
// percentage, stage tally, the currently running stage (with its work
// counter when the stage reports units) and the ETA.
func progressLine(s obs.ProgressSnapshot) string {
	finished := 0
	var running *obs.StageStatus
	for i := range s.Stages {
		switch s.Stages[i].State {
		case obs.StageDone, obs.StageCached:
			finished++
		case obs.StageRunning:
			running = &s.Stages[i]
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%3.0f%% | %d/%d stages", 100*s.Fraction, finished, len(s.Stages))
	if running != nil {
		fmt.Fprintf(&b, " | %s", running.Name)
		if running.TotalUnits > 0 {
			fmt.Fprintf(&b, " %d/%d", running.DoneUnits, running.TotalUnits)
		}
	}
	if s.ETASeconds > 0 {
		fmt.Fprintf(&b, " | eta %ds", int(s.ETASeconds+0.5))
	}
	return b.String()
}

func writePanel(out, prefix string, exp, res, dist []stats.Series) error {
	if _, err := plot.WriteDat(out, prefix+"_expansion", exp); err != nil {
		return err
	}
	if _, err := plot.WriteDat(out, prefix+"_resilience", res); err != nil {
		return err
	}
	_, err := plot.WriteDat(out, prefix+"_distortion", dist)
	return err
}

func preview(series []stats.Series, title string, opts plot.Options) {
	opts.Title = title
	plot.ASCII(os.Stdout, series, opts)
}

func writeTable1(r *experiments.Runner, out string) error {
	f, err := os.Create(filepath.Join(out, "table1_inventory.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Type\tTopology\tNodes\tEdges\tAvgDegree\tMaxDegree")
	for _, d := range r.Table1() {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.2f\t%d\n",
			d.Category, d.Name, d.Nodes, d.Edges, d.AvgDegree, d.MaxDegree)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func writeRows(path string, rows []core.Row) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := core.WriteTable(f, rows); err != nil {
		return err
	}
	return f.Close()
}

func writeTable4(r *experiments.Runner, out string) error {
	f, err := os.Create(filepath.Join(out, "table4_hierarchy.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Topology\tHierarchy\tExpected")
	for _, row := range r.Table4() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", row.Name, row.Class, core.ExpectedHierarchy[row.Name])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func writeFigure5(r *experiments.Runner, out string) error {
	f, err := os.Create(filepath.Join(out, "fig5_correlation.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Topology\tCorrelation")
	for _, row := range r.Figure5() {
		fmt.Fprintf(tw, "%s\t%.3f\n", row.Name, row.Correlation)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func writeFigure11(r *experiments.Runner, out string) error {
	f, err := os.Create(filepath.Join(out, "fig11_parameters.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Generator\tParams\tNodes\tAvgDegree\tSignature")
	for _, row := range r.Figure11() {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%s\n",
			row.Generator, row.Params, row.Nodes, row.AvgDegree, row.Signature)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func writeSummary(r *experiments.Runner, out string) error {
	f, err := os.Create(filepath.Join(out, "summary.txt"))
	if err != nil {
		return err
	}
	defer f.Close()
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Check\tExpected\tGot\tMatch")
	matches, total := 0, 0
	for _, c := range r.Summary() {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%v\n", c.Name, c.Expected, c.Got, c.Match)
		total++
		if c.Match {
			matches++
		}
	}
	fmt.Fprintf(tw, "TOTAL\t\t\t%d/%d\n", matches, total)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("summary: %d/%d checks match the paper\n", matches, total)
	return f.Close()
}
