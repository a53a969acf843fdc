// The /v1/metric endpoint: one ball-growing distance metric over one
// network, run on that (set, network) pair's long-lived ball engine.
//
// Why sharing the engine cannot change results: a metric reads per-center
// cum profiles from the engine's cache. A CumProfile is the per-radius
// ball-size vector — integer level counts, independent of which request,
// batch or route computed them (the engine's contract, pinned by its golden
// tests) — and the metric assembles them in its own deterministic center
// order. So every response is byte-identical to a fresh server's answer to
// that request alone; the warm cache only decides how much kernel work the
// server spends to get there.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/metrics"
	"topocmp/internal/stats"
)

// engine returns the shared engine for (set, name), creating it on first
// use at the server's full worker width. Its profile caches persist across
// requests, so repeat queries against a warm graph skip kernel work
// entirely.
func (s *Server) engine(set core.PaperSetOptions, name string) *ball.Engine {
	key := set.CacheKey() + "|" + name
	s.engMu.Lock()
	defer s.engMu.Unlock()
	e := s.engines[key]
	if e == nil {
		e = ball.NewEngine(s.network(set, name).Graph, s.opts.workers())
		e.Instrument(s.reg)
		s.engines[key] = e
	}
	return e
}

// MetricRequest is the /v1/metric body: one distance metric over one
// network. Supported metrics are "expansion" (Figure 2a-style E(h)) and
// "eccentricity" (the Figure 7 node-diameter distribution); both only need
// ball sizes, which the network's shared engine caches.
type MetricRequest struct {
	Network string
	Set     core.PaperSetOptions
	Metric  string
	// Sources caps sampled BFS centers (0 = a 64-center default; negative =
	// every node). Seed drives the center sampling (0 = 1). BinWidth is the
	// eccentricity histogram bin (0 = 0.1, otherwise at least MinBinWidth).
	Sources        int
	Seed           int64
	BinWidth       float64
	TimeoutSeconds float64
}

// MinBinWidth is the smallest nonzero BinWidth /v1/metric accepts. A
// center's bin index is ecc/mean/BinWidth, and ecc/mean never exceeds the
// number of sampled centers, so above this floor the index fits in an int.
const MinBinWidth = 1e-9

// Validate rejects requests no metric can honour: an unknown metric, a
// negative BinWidth (the histogram would fall back to 0.1 under a cache key
// of its own, so identical work would miss dedup and the cache) or one below
// MinBinWidth (its bin index would overflow int), and network-set options
// the builders cannot take. The daemon answers such a request with 400
// before admission.
func (q MetricRequest) Validate() error {
	if q.Metric != "expansion" && q.Metric != "eccentricity" {
		return fmt.Errorf("unknown metric %q (want expansion or eccentricity)", q.Metric)
	}
	if q.BinWidth != 0 && !(q.BinWidth >= MinBinWidth) {
		return fmt.Errorf("bin width %g: want 0 (default) or at least %g", q.BinWidth, MinBinWidth)
	}
	return q.Set.Validate()
}

func (q *MetricRequest) defaults() {
	if q.Sources == 0 {
		q.Sources = 64
	}
	if q.Sources < 0 {
		q.Sources = 0 // ball.Centers: 0 samples every node
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.BinWidth == 0 {
		q.BinWidth = 0.1
	}
}

// metricEntry is the cacheable (and only) response form of /v1/metric.
type metricEntry struct {
	Network string
	Metric  string
	Series  stats.Series
}

func (s *Server) handleMetric(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.hLatency.Observe(time.Since(t0)) }()
	s.cRequests.Add(1)
	var req MetricRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !knownNetwork(req.Network) {
		http.Error(w, fmt.Sprintf("unknown network %q", req.Network), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	req.defaults()
	key := cache.Key(req.Set.CacheKey(),
		fmt.Sprintf("servemetric:%s,src=%d,seed=%d,bin=%g", req.Metric, req.Sources, req.Seed, req.BinWidth),
		"net:"+req.Network)
	s.stamp(w, key)

	ctx, cancel := s.requestCtx(r, req.TimeoutSeconds)
	defer cancel()

	s.serveKeyed(w, ctx, key, "metric:"+req.Network,
		func() (any, bool) {
			var ent metricEntry
			if !s.opts.Cache.Get(key, &ent) {
				return nil, false
			}
			return &ent, true
		},
		func(cctx context.Context, _ int) (any, error) {
			ent, err := s.computeMetric(cctx, req)
			if err != nil {
				return nil, err
			}
			s.opts.Cache.Put(key, ent) //nolint:errcheck // best-effort persist
			return ent, nil
		})
}

// computeMetric runs one distance metric on the network's shared engine.
// It holds the server's whole worker budget for the sweep, the width the
// engine was built with, so the weighted semaphore keeps metric traffic
// honest against concurrently admitted suites. Concurrent metric requests
// therefore take turns, and on the same network each finds the centers its
// predecessors swept in the engine's cache.
func (s *Server) computeMetric(ctx context.Context, req MetricRequest) (*metricEntry, error) {
	eng := s.engine(req.Set, req.Network)
	w := s.opts.workers()
	s.tokens.acquire(w)
	defer s.tokens.release(w)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ent := &metricEntry{Network: req.Network, Metric: req.Metric}
	rng := rand.New(rand.NewSource(req.Seed))
	switch req.Metric {
	case "expansion":
		ent.Series = metrics.ExpansionWith(eng, ball.Config{MaxSources: req.Sources, Rand: rng})
	case "eccentricity":
		ent.Series = metrics.EccentricityDistributionWith(eng, req.Sources, req.BinWidth, rng)
	}
	s.cMetricRuns.Add(1)
	return ent, nil
}
