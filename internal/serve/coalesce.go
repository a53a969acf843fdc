// Cross-request sweep coalescing: the /v1/metric endpoint and the
// per-engine admission window that batches concurrent distance-metric
// requests into shared MSBFS strips.
//
// Why coalescing cannot change results: the shared sweep only pre-warms the
// engine's cum-profile cache (one bit-parallel pass over the union of the
// requests' centers). A CumProfile is the per-radius ball-size vector —
// integer level counts, independent of which batch or route computed them
// (the engine's contract, pinned by its golden tests) — so the per-request
// metric assembly reads the same values it would have computed alone, in
// the same deterministic center order. Byte-identity with solo runs follows
// for free; the window only decides how many CSR passes the server spends
// to get there.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/metrics"
	"topocmp/internal/stats"
)

// engineEntry is one (set, network) pair's long-lived ball engine and its
// coalescer. The engine's profile caches persist across requests, so
// repeat queries against a warm graph skip kernel work entirely.
type engineEntry struct {
	eng  *ball.Engine
	coal *coalescer
}

// engine returns the shared engine for (set, name), creating it (and its
// coalescer) on first use.
func (s *Server) engine(set core.PaperSetOptions, name string) *engineEntry {
	key := set.CacheKey() + "|" + name
	s.engMu.Lock()
	defer s.engMu.Unlock()
	e := s.engines[key]
	if e == nil {
		eng := ball.NewEngine(s.network(set, name).Graph, s.opts.workers())
		eng.Instrument(s.reg)
		e = &engineEntry{eng: eng, coal: newCoalescer(s, eng, s.opts.window())}
		s.engines[key] = e
	}
	return e
}

// coalescer batches concurrent center submissions against one engine into
// shared sweeps. The first submission of a batch opens the admission
// window; every submission arriving within it joins the batch; at close the
// union of centers runs through one CumProfiles call (the bit-parallel
// multi-source kernel) under the full worker budget, and every submitter
// resumes against the warm cache. A window of 0 disables batching — the
// engine's per-center claim protocol still dedups exact overlap between
// concurrent calls, just without the strip sharing.
type coalescer struct {
	s      *Server
	eng    *ball.Engine
	window time.Duration

	mu  sync.Mutex
	cur *sweepBatch
}

type sweepBatch struct {
	done      chan struct{}
	centers   map[int32]struct{}
	submitted int
}

func newCoalescer(s *Server, eng *ball.Engine, window time.Duration) *coalescer {
	return &coalescer{s: s, eng: eng, window: window}
}

// warm blocks until the submitted centers' cum profiles are in the engine
// cache (or returns immediately with batching disabled, leaving the metric
// itself to compute them).
func (c *coalescer) warm(centers []int32) {
	if c.window <= 0 {
		return
	}
	c.mu.Lock()
	b := c.cur
	if b == nil {
		b = &sweepBatch{done: make(chan struct{}), centers: map[int32]struct{}{}}
		c.cur = b
		go c.flush(b)
	}
	for _, v := range centers {
		b.centers[v] = struct{}{}
	}
	b.submitted += len(centers)
	c.mu.Unlock()
	<-b.done
}

func (c *coalescer) flush(b *sweepBatch) {
	time.Sleep(c.window)
	c.mu.Lock()
	if c.cur == b {
		c.cur = nil // submissions from here on open the next batch
	}
	c.mu.Unlock()
	union := make([]int32, 0, len(b.centers))
	for v := range b.centers {
		union = append(union, v)
	}
	slices.Sort(union)
	// The shared sweep holds the whole worker budget for its duration: it
	// is the one place metric traffic fans out, so the weighted semaphore
	// keeps it honest against concurrently admitted suites.
	w := c.s.opts.workers()
	c.s.tokens.acquire(w)
	c.eng.SetParallelism(w) // a window-disabled request may have narrowed it
	c.eng.CumProfiles(union)
	c.s.tokens.release(w)
	c.s.cCoalesceBatches.Add(1)
	c.s.cCoalescedSources.Add(int64(b.submitted))
	c.s.cCoalesceSwept.Add(int64(len(union)))
	close(b.done)
}

// MetricRequest is the /v1/metric body: one coalescible distance metric
// over one network. Supported metrics are "expansion" (Figure 2a-style
// E(h)) and "eccentricity" (the Figure 7 node-diameter distribution);
// both only need ball sizes, which is what makes their sweeps shareable.
type MetricRequest struct {
	Network string
	Set     core.PaperSetOptions
	Metric  string
	// Sources caps sampled BFS centers (0 = a 64-center default; negative =
	// every node). Seed drives the center sampling (0 = 1). BinWidth is the
	// eccentricity histogram bin (0 = 0.1).
	Sources        int
	Seed           int64
	BinWidth       float64
	TimeoutSeconds float64
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
	req.defaults()
	if req.Metric != "expansion" && req.Metric != "eccentricity" {
		http.Error(w, fmt.Sprintf("unknown metric %q (want expansion or eccentricity)", req.Metric),
			http.StatusBadRequest)
		return
	}
	if err := req.Set.Validate(); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
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
		func(cctx context.Context, width int) (any, error) {
			ent, err := s.computeMetric(cctx, req, width)
			if err != nil {
				return nil, err
			}
			s.opts.Cache.Put(key, ent) //nolint:errcheck // best-effort persist
			return ent, nil
		})
}

// computeMetric runs one distance metric through the shared engine. The
// request's center set is derived deterministically from (Sources, Seed)
// exactly as the metric itself will derive it, submitted to the coalescer
// for the shared warm sweep, and then the metric assembles its series from
// the warm cache — the assembly's kernel work all hit in the sweep, so it
// holds no tokens (holding while waiting on the sweep would deadlock
// against the sweep's full-budget acquire). With coalescing disabled the
// request runs the kernels itself under its granted width instead.
func (s *Server) computeMetric(ctx context.Context, req MetricRequest, width int) (*metricEntry, error) {
	e := s.engine(req.Set, req.Network)
	g := e.eng.Graph()
	cfg := ball.Config{MaxSources: req.Sources, Rand: rand.New(rand.NewSource(req.Seed))}
	centers := ball.Centers(g, &cfg)
	if s.opts.window() > 0 {
		e.coal.warm(centers)
	} else {
		s.tokens.acquire(width)
		defer s.tokens.release(width)
		e.eng.SetParallelism(width)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ent := &metricEntry{Network: req.Network, Metric: req.Metric}
	switch req.Metric {
	case "expansion":
		ent.Series = metrics.ExpansionWith(e.eng, ball.Config{
			MaxSources: req.Sources,
			Rand:       rand.New(rand.NewSource(req.Seed)),
		})
	case "eccentricity":
		ent.Series = metrics.EccentricityDistributionWith(e.eng, req.Sources, req.BinWidth,
			rand.New(rand.NewSource(req.Seed)))
	}
	s.cMetricRuns.Add(1)
	return ent, nil
}
