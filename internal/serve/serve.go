// Package serve is the serving layer behind cmd/topocmpd: a long-running
// HTTP daemon answering generator+metric queries over the same
// SuiteOptions/PaperSetOptions vocabulary the CLI runs. Three mechanisms
// make many concurrent clients cheap:
//
//   - Singleflight dedup. Every request is content-addressed by the exact
//     key the experiment pipeline caches under (experiments.SuiteKey — the
//     dedup key contract IS the cache key contract), so concurrent requests
//     for the same work attach to one in-flight execution, later requests
//     serve from the in-process memo, and a disk store warmed by a CLI run
//     satisfies daemon requests without computing anything.
//
//   - Shared ball engines. Distance-metric requests against the same graph
//     run on one long-lived ball engine (see metric.go), whose cum-profile
//     cache keeps every center's level counts across requests. Level counts
//     are order-independent integers, so a response that reads another
//     request's counts is byte-identical to a fresh server's.
//
//   - Bounded admission. At most MaxInFlight computations run at once
//     (excess requests that cannot dedup or hit the cache are shed with
//     429 + Retry-After). A suite is granted an equal share of one weighted
//     worker semaphore and a metric request the whole of it — the same
//     no-oversubscription discipline as the pipeline's Prefetch — and each
//     carries its request context so a hung-up client cancels work nobody
//     is waiting for.
//
// Responses are built solely from the cacheable entry forms (SuiteEntry,
// metricEntry), never from transient state, so the computed, dedup, memo and
// disk-cache paths all marshal the same bytes. Per-request metadata (trace
// id, which path served it) travels in X-Topocmp-* headers only.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/obs"
)

// Options configures a Server. The zero value serves with NumCPU workers,
// two computation slots, no deadline and no disk cache.
type Options struct {
	// Workers is the global worker budget shared by every computation the
	// server runs (suite stages, metric sweeps); 0 uses runtime.NumCPU.
	Workers int
	// MaxInFlight caps concurrently *computing* requests; requests beyond
	// it that cannot be served by dedup or the cache are shed with 429.
	// 0 means 2.
	MaxInFlight int
	// Deprecated: ignored. Metric requests run directly on the network's
	// shared engine, with no admission window.
	Window time.Duration
	// Deadline, when positive, bounds every request that does not carry its
	// own TimeoutSeconds. The deadline cancels waiting and, when the last
	// waiter gives up, the computation itself.
	Deadline time.Duration
	// Cache is the optional content-addressed store shared with CLI runs;
	// nil serves memory-only.
	Cache *cache.Store
	// Tracer, when non-nil, receives one span per computed request. The span
	// tree grows with traffic, so this is a debugging aid, not a default.
	Tracer *obs.Tracer
	// DisableDedup turns off singleflight (every request computes) — the
	// naive baseline BenchmarkServe measures against.
	DisableDedup bool
	// KeepStages bounds completed per-request progress stages retained for
	// /debug/progress; older ones are forgotten. 0 means 64.
	KeepStages int
}

func (o *Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

func (o *Options) maxInFlight() int {
	if o.MaxInFlight > 0 {
		return o.MaxInFlight
	}
	return 2
}

func (o *Options) keepStages() int {
	if o.KeepStages > 0 {
		return o.KeepStages
	}
	return 64
}

// sem is a weighted counting semaphore (the pipeline's no-oversubscription
// primitive): acquire(k) blocks until k of the n tokens are free. Suite
// runs hold their granted width, metric runs the whole budget.
type sem struct {
	mu    sync.Mutex
	cond  *sync.Cond
	avail int
}

func newSem(n int) *sem {
	s := &sem{avail: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *sem) acquire(k int) {
	s.mu.Lock()
	for s.avail < k {
		s.cond.Wait()
	}
	s.avail -= k
	s.mu.Unlock()
}

func (s *sem) release(k int) {
	s.mu.Lock()
	s.avail += k
	s.cond.Broadcast()
	s.mu.Unlock()
}

// flight is one keyed execution: the initiating request computes, every
// concurrent identical request attaches and waits on done. A completed
// flight stays in the map as the in-process memo for its key; an errored
// one is removed so a later request retries. The waiter refcount threads
// client interest into the computation: when the last waiter detaches, the
// compute context is canceled.
type flight struct {
	key  string
	done chan struct{}
	body []byte // valid after done when err == nil
	err  error

	mu      sync.Mutex
	waiters int
	cancel  context.CancelFunc
}

func (f *flight) attach() {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
}

func (f *flight) detach() {
	f.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	f.mu.Unlock()
	if last {
		f.cancel() // no-op once the computation has finished
	}
}

// Server answers suite and metric queries with singleflight dedup, shared
// ball engines and bounded admission. Create one with New; it has no Close —
// the owner drains via http.Server.Shutdown and the computations it cancels.
type Server struct {
	opts   Options
	reg    *obs.Registry
	prog   *obs.Progress
	tracer *obs.Tracer

	tokens *sem // weighted worker budget, opts.workers() tokens

	mu       sync.Mutex
	flights  map[string]*flight
	inflight int      // flights currently computing (admission-bounded)
	recent   []string // completed per-request stage names, oldest first

	netMu sync.Mutex
	onces map[string]*sync.Once
	nets  map[string]*core.Network
	msets map[string]*core.MeasuredSet

	engMu   sync.Mutex
	engines map[string]*ball.Engine

	traceSeq atomic.Int64

	cRequests   *obs.Counter
	cDedup      *obs.Counter
	cCacheHits  *obs.Counter
	cSuiteRuns  *obs.Counter
	cMetricRuns *obs.Counter
	cRejected   *obs.Counter
	hLatency    *obs.Histogram
}

// New returns a server over the options. The server owns its metrics
// registry and progress tracker (reachable via Metrics/Progress for
// samplers); the optional cache store is instrumented into the registry so
// /metrics shows cache traffic alongside the serve.* counters.
func New(opts Options) *Server {
	reg := obs.NewRegistry()
	opts.Cache.Instrument(reg)
	s := &Server{
		opts:    opts,
		reg:     reg,
		prog:    obs.NewProgress(),
		tracer:  opts.Tracer,
		tokens:  newSem(opts.workers()),
		flights: map[string]*flight{},
		onces:   map[string]*sync.Once{},
		nets:    map[string]*core.Network{},
		msets:   map[string]*core.MeasuredSet{},
		engines: map[string]*ball.Engine{},

		cRequests:   reg.Counter("serve.requests"),
		cDedup:      reg.Counter("serve.dedup_hits"),
		cCacheHits:  reg.Counter("serve.cache_hits"),
		cSuiteRuns:  reg.Counter("serve.suite_runs"),
		cMetricRuns: reg.Counter("serve.metric_runs"),
		cRejected:   reg.Counter("serve.rejected"),
		hLatency:    reg.Histogram("serve.latency"),
	}
	return s
}

// Metrics returns the server's metrics registry (serve.*, ball.*, cache.*).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Progress returns the server's live progress tracker.
func (s *Server) Progress() *obs.Progress { return s.prog }

// Handler returns the server's full mux: the observability plane
// (/metrics, /debug/progress, /debug/trace, /debug/pprof/) plus
//
//	POST /v1/suite     run (or dedup/serve) a full metric suite
//	POST /v1/metric    run one ball-growing distance metric
//	GET  /v1/networks  list servable network names
//	GET  /healthz      liveness probe
func (s *Server) Handler() http.Handler {
	mux := obs.NewDebugMux(s.reg, s.prog, s.tracer)
	mux.HandleFunc("/v1/suite", s.handleSuite)
	mux.HandleFunc("/v1/metric", s.handleMetric)
	mux.HandleFunc("/v1/networks", s.handleNetworks)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// SuiteRequest is the /v1/suite body: which network to measure and the
// exact option structs the CLI uses, so a request describes the same work a
// `reproduce` invocation would (and shares its cache entries). Fields with
// no JSON presence (Metrics, Span, Progress) cannot be set remotely.
type SuiteRequest struct {
	Network string
	Set     core.PaperSetOptions
	Suite   core.SuiteOptions
	// TimeoutSeconds, when positive, overrides the server's default
	// per-request deadline.
	TimeoutSeconds float64
}

// knownNetwork reports whether the experiment inventory can build name.
func knownNetwork(name string) bool {
	for _, n := range experiments.AllTableNames {
		if n == name {
			return true
		}
	}
	return false
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	defer func() { s.hLatency.Observe(time.Since(t0)) }()
	s.cRequests.Add(1)
	var req SuiteRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !knownNetwork(req.Network) {
		http.Error(w, fmt.Sprintf("unknown network %q", req.Network), http.StatusBadRequest)
		return
	}
	if err := req.Set.Validate(); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := req.Suite.Validate(); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	cfg := experiments.Config{Set: req.Set, Suite: req.Suite}
	key := experiments.SuiteKey(cfg, req.Network)
	s.stamp(w, key)

	ctx, cancel := s.requestCtx(r, req.TimeoutSeconds)
	defer cancel()

	s.serveKeyed(w, ctx, key, "suite:"+req.Network,
		func() (any, bool) { // disk fast path
			var ent experiments.SuiteEntry
			if !s.opts.Cache.Get(key, &ent) {
				return nil, false
			}
			return &ent, true
		},
		func(cctx context.Context, width int) (any, error) {
			s.tokens.acquire(width)
			defer s.tokens.release(width)
			n := s.network(cfg.Set, req.Network)
			opts := cfg.Suite
			opts.Parallelism = width
			opts.Metrics = s.reg
			res, err := s.runSuite(cctx, key, req.Network, n, opts)
			if err != nil {
				return nil, err
			}
			ent := experiments.MakeSuiteEntry(res, experiments.Summarize(n))
			s.opts.Cache.Put(key, ent) //nolint:errcheck // best-effort persist
			return ent, nil
		})
}

// runSuite wraps core.RunSuiteCtx with the server's per-request
// observability: a span under the tracer root and a live progress stage fed
// by the suite's ball engine, pruned once KeepStages newer requests finish.
func (s *Server) runSuite(ctx context.Context, key, network string, n *core.Network, opts core.SuiteOptions) (*core.SuiteResult, error) {
	sp := s.tracer.Root().Start("suite:" + network)
	defer sp.End()
	stage := "suite:" + network + "@" + key[:8]
	st := s.prog.Register(stage)
	st.Run()
	opts.Span = sp
	opts.Progress = st
	res, err := core.RunSuiteCtx(ctx, n, opts)
	st.Done()
	s.retireStage(stage)
	if err != nil {
		return nil, err
	}
	s.cSuiteRuns.Add(1)
	return res, nil
}

// serveKeyed is the singleflight spine shared by the suite and metric
// endpoints: attach to an in-flight or memoized execution for key, serve
// the disk fast path, or admit a new computation (shedding with 429 when
// MaxInFlight are already computing). compute receives a context canceled
// when every waiter is gone and the worker width it was granted; its result
// is marshaled once and the bytes serve every waiter, so all paths are
// byte-identical.
func (s *Server) serveKeyed(w http.ResponseWriter, ctx context.Context, key, label string,
	cached func() (any, bool), compute func(ctx context.Context, width int) (any, error)) {
	dedup := !s.opts.DisableDedup
	if dedup {
		s.mu.Lock()
		if f := s.flights[key]; f != nil {
			f.attach()
			s.mu.Unlock()
			s.cDedup.Add(1)
			s.await(w, ctx, f, "dedup")
			return
		}
		s.mu.Unlock()
	}
	if v, ok := cached(); ok {
		s.cCacheHits.Add(1)
		s.respond(w, "cache", v)
		return
	}
	s.mu.Lock()
	if dedup {
		if f := s.flights[key]; f != nil { // raced with another admitter
			f.attach()
			s.mu.Unlock()
			s.cDedup.Add(1)
			s.await(w, ctx, f, "dedup")
			return
		}
	}
	if s.inflight >= s.opts.maxInFlight() {
		s.mu.Unlock()
		s.cRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "saturated: max in-flight computations reached", http.StatusTooManyRequests)
		return
	}
	s.inflight++
	width := s.opts.workers() / s.inflight
	if width < 1 {
		width = 1
	}
	cctx, ccancel := context.WithCancel(context.Background())
	if s.opts.Deadline > 0 {
		cctx, ccancel = context.WithTimeout(context.Background(), s.opts.Deadline)
	}
	f := &flight{key: key, done: make(chan struct{}), waiters: 1, cancel: ccancel}
	if dedup {
		s.flights[key] = f
	}
	s.mu.Unlock()

	go func() {
		// Token discipline is the compute callback's: suite runs hold their
		// granted width for their whole duration, metric runs the whole
		// budget for theirs.
		v, err := computeRecover(cctx, width, label, compute)
		if err == nil {
			f.body, err = marshalBody(v)
		}
		f.err = err
		// Release the admission slot before waking the waiters: a
		// closed-loop client's next request must find it free.
		s.mu.Lock()
		s.inflight--
		if err != nil && dedup {
			delete(s.flights, key) // let a later request retry
		}
		s.mu.Unlock()
		close(f.done)
	}()
	s.await(w, ctx, f, "computed")
}

// errPanic marks a computation that panicked: the flight fails with 500
// instead of taking the daemon down with it.
var errPanic = errors.New("computation panicked")

// computeRecover runs compute, turning a panic on this goroutine into an
// errPanic error (the stack goes to the log). Panics on goroutines the
// computation starts itself still end the process.
func computeRecover(ctx context.Context, width int, label string,
	compute func(ctx context.Context, width int) (any, error)) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: %s panicked: %v\n%s", label, p, debug.Stack())
			v, err = nil, fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	return compute(ctx, width)
}

// await serves a flight's outcome to one waiter, or gives up at the
// request's deadline (detaching, which cancels abandoned work).
func (s *Server) await(w http.ResponseWriter, ctx context.Context, f *flight, source string) {
	defer f.detach()
	select {
	case <-f.done:
		if f.err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(f.err, errPanic) {
				code = http.StatusInternalServerError
			}
			http.Error(w, "computation failed: "+f.err.Error(), code)
			return
		}
		w.Header().Set("X-Topocmp-Source", source)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(f.body) //nolint:errcheck // client went away
	case <-ctx.Done():
		http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
	}
}

func (s *Server) respond(w http.ResponseWriter, source string, v any) {
	body, err := marshalBody(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Topocmp-Source", source)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body) //nolint:errcheck // client went away
}

// marshalBody is the one serializer every path funnels through: the entry
// forms contain only structs and slices (no maps), so encoding/json is
// deterministic and gob round-trips bit-exact — computed, memo, dedup and
// disk-cache responses are byte-identical.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("serve: encode response: %w", err)
	}
	return append(b, '\n'), nil
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// stamp attaches the per-request trace id and the content-address prefix —
// response metadata lives in headers only, never in the (cacheable) body.
func (s *Server) stamp(w http.ResponseWriter, key string) {
	w.Header().Set("X-Topocmp-Trace", fmt.Sprintf("r%06d", s.traceSeq.Add(1)))
	w.Header().Set("X-Topocmp-Key", key[:16])
}

func (s *Server) requestCtx(r *http.Request, timeoutSeconds float64) (context.Context, context.CancelFunc) {
	d := s.opts.Deadline
	if timeoutSeconds > 0 {
		d = time.Duration(timeoutSeconds * float64(time.Second))
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return context.WithCancel(r.Context())
}

// retireStage records a completed per-request progress stage and forgets
// the oldest beyond KeepStages, so a long-lived daemon's /debug/progress
// stays bounded.
func (s *Server) retireStage(name string) {
	keep := s.opts.keepStages()
	s.mu.Lock()
	s.recent = append(s.recent, name)
	var drop []string
	if len(s.recent) > keep {
		drop = s.recent[:len(s.recent)-keep]
		s.recent = append([]string(nil), s.recent[len(s.recent)-keep:]...)
	}
	s.mu.Unlock()
	for _, n := range drop {
		s.prog.Forget(n)
	}
}

// onceFor returns the named once-guard, creating it on first use (the same
// idiom as the pipeline Runner's build guards).
func (s *Server) onceFor(name string) *sync.Once {
	s.netMu.Lock()
	defer s.netMu.Unlock()
	o := s.onces[name]
	if o == nil {
		o = new(sync.Once)
		s.onces[name] = o
	}
	return o
}

// network returns the named network under the set options, building it at
// most once per (set, name) and holding it for the server's lifetime —
// long-lived graph state is what lets engines and their caches be shared
// across requests. AS and RL share one measurement-pipeline run per set.
func (s *Server) network(set core.PaperSetOptions, name string) *core.Network {
	key := set.CacheKey() + "|" + name
	s.onceFor("net:" + key).Do(func() {
		var n *core.Network
		switch name {
		case "AS", "RL":
			ms := s.measuredSet(set)
			if name == "AS" {
				n = ms.AS
			} else {
				n = ms.RL
			}
		default:
			n = core.BuildNetwork(name, set)
		}
		s.netMu.Lock()
		s.nets[key] = n
		s.netMu.Unlock()
	})
	s.netMu.Lock()
	defer s.netMu.Unlock()
	return s.nets[key]
}

func (s *Server) measuredSet(set core.PaperSetOptions) *core.MeasuredSet {
	key := set.CacheKey()
	s.onceFor("measured:" + key).Do(func() {
		opts := set
		opts.Metrics = s.reg
		ms := core.BuildMeasured(opts)
		s.netMu.Lock()
		s.msets[key] = ms
		s.netMu.Unlock()
	})
	s.netMu.Lock()
	defer s.netMu.Unlock()
	return s.msets[key]
}

// networksResponse is the /v1/networks body.
type networksResponse struct {
	Networks []string `json:"networks"`
}

func (s *Server) handleNetworks(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(networksResponse{Networks: experiments.AllTableNames}) //nolint:errcheck
}
