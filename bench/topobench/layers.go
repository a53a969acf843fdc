package main

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"topocmp/internal/obs"
)

// spanClock stamps when every span of a tracer starts and ends. obs.Span
// keeps its start time private, and self time and fair-share attribution
// need the intervals, so the tracer's hooks record them.
type spanClock struct {
	t0 time.Time
	mu sync.Mutex
	lo map[*obs.Span]time.Duration
	hi map[*obs.Span]time.Duration
}

// newTracer returns a tracer for the harness plus the clock its hooks feed.
func newTracer() (*obs.Tracer, *spanClock) {
	c := &spanClock{t0: time.Now(), lo: map[*obs.Span]time.Duration{}, hi: map[*obs.Span]time.Duration{}}
	tr := obs.NewTracer("topobench")
	tr.OnStart = func(s *obs.Span) {
		c.mu.Lock()
		c.lo[s] = time.Since(c.t0)
		c.mu.Unlock()
	}
	tr.OnEnd = func(s *obs.Span) {
		c.mu.Lock()
		c.hi[s] = time.Since(c.t0)
		c.mu.Unlock()
	}
	return tr, c
}

// interval returns the span's start and end offsets; a span still open
// ends now.
func (c *spanClock) interval(s *obs.Span) (lo, hi time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo = c.lo[s]
	hi, ok := c.hi[s]
	if !ok {
		hi = time.Since(c.t0)
	}
	return lo, hi
}

type ival struct{ lo, hi time.Duration }

// unionLen is the total length the intervals cover.
func unionLen(iv []ival) time.Duration {
	slices.SortFunc(iv, func(a, b ival) int { return cmp.Compare(a.lo, b.lo) })
	var total time.Duration
	var cur ival
	open := false
	for _, x := range iv {
		switch {
		case !open:
			cur, open = x, true
		case x.lo <= cur.hi:
			cur.hi = max(cur.hi, x.hi)
		default:
			total += cur.hi - cur.lo
			cur = x
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTime is the span's duration minus the part of it that its children
// cover.
func (c *spanClock) selfTime(s *obs.Span) time.Duration {
	lo, hi := c.interval(s)
	var iv []ival
	for _, ch := range s.Children() {
		a, b := c.interval(ch)
		a, b = max(a, lo), min(b, hi)
		if b > a {
			iv = append(iv, ival{a, b})
		}
	}
	return hi - lo - unionLen(iv)
}

type labeled struct {
	label string
	ival
}

// fairShare divides wall time among the spans open at each instant, in
// equal parts. Unlike summed durations, the attributed times never add up
// to more than the time the spans cover, so shares of the wall clock stay
// within 1 when suites run concurrently.
func fairShare(spans []labeled) map[string]time.Duration {
	type event struct {
		at    time.Duration
		label string
		delta int
	}
	var ev []event
	for _, s := range spans {
		if s.hi > s.lo {
			ev = append(ev, event{s.lo, s.label, 1}, event{s.hi, s.label, -1})
		}
	}
	slices.SortFunc(ev, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	out := map[string]time.Duration{}
	active := map[string]int{}
	total := 0
	var prev time.Duration
	for _, e := range ev {
		if dt := e.at - prev; dt > 0 && total > 0 {
			for label, k := range active {
				out[label] += dt * time.Duration(k) / time.Duration(total)
			}
		}
		prev = e.at
		active[e.label] += e.delta
		total += e.delta
		if active[e.label] == 0 {
			delete(active, e.label)
		}
	}
	return out
}

// spanLayers derives the span-based per-layer metrics of a traced
// repetition into out. It relies on these span names:
//
//	setup#<k> > build:<category>:<network>   harness, one tree per set-up
//	panel:<name>, render:<artifact>          harness, quick's artifact calls
//	suite:<network> > <stage>                core.RunSuite's stage spans under
//	                                         the Runner's or the server's suite
//	                                         span (the harness opens suite:RL
//	                                         for fullrl)
//
// wall is the measured phase's duration, the denominator of the shares.
func spanLayers(tr *obs.Tracer, c *spanClock, wall time.Duration, out map[string]float64) {
	builds := map[string][]float64{}
	var stages []labeled
	var walk func(s, parent *obs.Span)
	walk = func(s, parent *obs.Span) {
		name := s.Name()
		switch {
		case strings.HasPrefix(name, "setup#"):
			per := map[string]time.Duration{}
			for _, b := range s.Children() {
				if f := strings.SplitN(b.Name(), ":", 3); len(f) == 3 && f[0] == "build" {
					per[f[1]] += b.Duration()
				}
			}
			for cat, d := range per {
				builds[cat] = append(builds[cat], d.Seconds())
			}
		case strings.HasPrefix(name, "suite:"):
			out["suite."+strings.TrimPrefix(name, "suite:")+"_s"] += s.Duration().Seconds()
		case strings.HasPrefix(name, "panel:"):
			out["panel."+strings.TrimPrefix(name, "panel:")+"_s"] += s.Duration().Seconds()
		case strings.HasPrefix(name, "render:"):
			out["panel.render_s"] += s.Duration().Seconds()
		}
		if strings.HasPrefix(parent.Name(), "suite:") && slices.Contains(suiteStages, name) {
			out["stage."+name+"_s"] += c.selfTime(s).Seconds()
			lo, hi := c.interval(s)
			stages = append(stages, labeled{name, ival{lo, hi}})
		}
		for _, ch := range s.Children() {
			walk(ch, s)
		}
	}
	for _, ch := range tr.Root().Children() {
		walk(ch, tr.Root())
	}
	for cat, xs := range builds {
		out["build."+cat+"_s"] = median(xs)
	}
	if wall > 0 {
		for st, d := range fairShare(stages) {
			out["share."+st] = d.Seconds() / wall.Seconds()
		}
	}
}

// registryLayers derives the counter-based per-layer metrics from a layer
// registry: the measurement pipeline's counts as they stand in after (the
// registry saw exactly one measured build by then), everything else as the
// delta over the measured phase.
func registryLayers(before, after obs.Snapshot, out map[string]float64) {
	for _, name := range []string{"bgp.paths_collected", "traceroute.routers_discovered", "traceroute.links_discovered"} {
		out[name] = float64(after.Counters[name])
	}
	d := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	for _, name := range []string{
		"hierarchy.sigma_batches", "hierarchy.sigma_scalar", "hierarchy.link_value_sweeps",
		"ball.profiles", "ball.bfs_visits", "ball.subgraphs", "ball.msbfs_batches",
		"ball.msbfs_sources", "ball.dist_scalar", "ball.brandes_batches", "ball.brandes_scalar",
	} {
		out[name] = d(name)
	}
	reuse := func(gets, allocs string) float64 {
		if g := d(gets); g > 0 {
			return 1 - d(allocs)/g
		}
		return 0
	}
	out["ball.scratch_reuse"] = reuse("ball.scratch_gets", "ball.scratch_allocs")
	out["ball.kernel_reuse"] = reuse("ball.kernel_gets", "ball.kernel_allocs")
	out["pipeline.sem_wait_s"] = float64(after.Histograms["pipeline.sem_wait"].SumNs-
		before.Histograms["pipeline.sem_wait"].SumNs) / 1e9
	for _, c := range serveCounters {
		out["serve."+c] = d("serve." + c)
	}
	if req := out["serve.requests"]; req > 0 {
		out["serve.dedup_frac"] = out["serve.dedup_hits"] / req
	}
	if b := out["serve.coalesce_batches"]; b > 0 {
		out["serve.batch_fanin"] = out["serve.metric_runs"] / b
	}
	if src := out["serve.coalesced_sources"]; src > 0 {
		out["serve.sweep_saving"] = 1 - out["serve.coalesce_swept"]/src
	}
	out["serve.latency_p50_ms"] = float64(after.Histograms["serve.latency"].P50Ns) / 1e6
}
