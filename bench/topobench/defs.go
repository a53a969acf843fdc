package main

import "topocmp/internal/experiments"

// metricDef describes one reported metric. The tables below are the single
// definition of the names, units, directions and bounds that BENCHMARK.json
// repeats; TestBenchmarkJSONMatchesDefs keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening, as a share of the parent's median
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. For the batch workloads (quick, fullrl) one operation is the whole
// measured phase, so rps and p50_ms restate wall_s there; they carry their
// own information on the serve workloads.
//
// Every bound is 0.25, the widest the regression gate admits. On a shared
// 2-core host, ten runs at ten seeds spread (interquartile range over
// median) up to 0.21 in wall time, CPU time and latency and up to 0.21 in
// peak heap, because other tenants slow the host by up to 40% for minutes
// at a time; host_calib_s and host_steal_frac show when that happened.
// compare's paired rule resolves smaller effects.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "rps", Unit: "op/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// ungated are reported beside the end-to-end metrics but carry no bound.
// The 90th-percentile latency of serve-metric's 3 ms requests rose by 60%
// when hypervisor steal went from about 2% to 14% of the host's CPU time,
// with the code unchanged: wider than any bound the gate admits.
var ungated = []metricDef{{Name: "p90_ms", Unit: "ms", Better: "lower"}}

// failFracSlack is the absolute rise in the failed/attempted ratio that
// compare tolerates before it calls a regression.
const failFracSlack = 0.001

// suiteStages are the metric stages core.RunSuite opens spans for.
var suiteStages = []string{
	"expansion", "resilience", "distortion", "eigenvalues", "eccentricity",
	"vertex_cover", "biconnectivity", "attack_tolerance", "error_tolerance",
	"clustering", "link_values", "policy_link_values", "policy_expansion",
	"policy_ball_curves",
}

// panels are the quick workload's harness spans: the prefetch, each derived
// panel that computes beyond the suite memos, and the rendering of
// everything else.
var panels = []string{
	"prefetch", "figure11", "figure12", "figure13", "figure14",
	"connectivity", "rewiring", "extras", "render",
}

// serveCounters are the serving layer's obs counters, reported as deltas
// over the measured phase.
var serveCounters = []string{
	"requests", "dedup_hits", "cache_hits", "suite_runs", "metric_runs",
	"rejected", "coalesce_batches", "coalesced_sources", "coalesce_swept",
}

// perLayer returns the traced run's metrics in report order. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, cat := range []string{"generated", "canonical", "measured"} {
		add("build."+cat+"_s", "s", "lower")
	}
	add("bgp.paths_collected", "count", "higher")
	add("traceroute.routers_discovered", "count", "higher")
	add("traceroute.links_discovered", "count", "higher")
	for _, n := range experiments.AllTableNames {
		add("suite."+n+"_s", "s", "lower")
	}
	for _, st := range suiteStages {
		add("stage."+st+"_s", "s", "lower")
	}
	for _, st := range suiteStages {
		add("share."+st, "ratio", "lower")
	}
	add("hierarchy.sigma_batches", "count", "lower")
	add("hierarchy.sigma_scalar", "count", "lower")
	add("hierarchy.link_value_sweeps", "count", "lower")
	for _, c := range []string{"profiles", "bfs_visits", "subgraphs", "msbfs_batches"} {
		add("ball."+c, "count", "lower")
	}
	add("ball.msbfs_sources", "count", "higher")
	for _, c := range []string{"dist_scalar", "brandes_batches", "brandes_scalar"} {
		add("ball."+c, "count", "lower")
	}
	add("ball.scratch_reuse", "ratio", "higher")
	add("ball.kernel_reuse", "ratio", "higher")
	for _, p := range panels {
		add("panel."+p+"_s", "s", "lower")
	}
	add("pipeline.sem_wait_s", "s", "lower")
	for _, c := range serveCounters {
		better := "lower"
		switch c {
		case "requests", "dedup_hits", "cache_hits", "coalesced_sources":
			better = "higher"
		}
		add("serve."+c, "count", better)
	}
	add("serve.dedup_frac", "ratio", "higher")
	add("serve.batch_fanin", "ratio", "higher")
	add("serve.sweep_saving", "ratio", "higher")
	add("serve.window_wait_s", "s", "lower")
	add("serve.latency_p50_ms", "ms", "lower")
	add("client.retries", "count", "lower")
	add("client.p90_ms", "ms", "lower")
	for _, ph := range []string{"setup", "measured"} {
		add("mem."+ph+".alloc_mb", "MB", "lower")
		add("mem."+ph+".live_mb", "MB", "lower")
	}
	add("peak_rss_mb", "MB", "lower")
	add("host_calib_s", "s", "lower")
	add("host_steal_frac", "ratio", "lower")
	add("quick.paper_checks_matched", "count", "higher")
	add("obs.trace_overhead_frac", "ratio", "lower")
	add("fail_frac", "ratio", "lower")
	return defs
}

// workloadNames lists the workloads in the order runs interleave them.
var workloadNames = []string{"quick", "fullrl", "serve-suite", "serve-metric"}
