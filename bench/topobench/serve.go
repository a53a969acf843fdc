package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/metrics"
	"topocmp/internal/obs"
	"topocmp/internal/serve"
	"topocmp/internal/stats"
)

// loopback is a serve.Server behind an http.Server on a loopback port, and
// a keep-alive client for it.
type loopback struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	hc   *http.Client
	done chan struct{}
}

func startServer(opts serve.Options, clients int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{
		srv:  serve.New(opts),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	l.hs = &http.Server{Handler: l.srv.Handler()}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after close
	}()
	return l, nil
}

// close shuts the server down and waits for its serving goroutine.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	l.hs.Shutdown(ctx) //nolint:errcheck // the deadline only bounds the drain
	<-l.done
	l.hc.CloseIdleConnections()
}

// serveWindow is the coalescing window the server runs with: topocmpd's
// default, which serve.Options' zero Window selects.
const serveWindow = 2 * time.Millisecond

// maxRetries bounds how often the client resends a request the server
// refused with 429. With two clients and the default two in-flight slots a
// refusal is the admission race serveKeyed has (the slot frees just after
// the response), so an immediate resend succeeds; the resend's time counts
// in the request's latency.
const maxRetries = 100

// post sends one request, resending after 429 refusals, and returns the
// final status and body plus the number of resends.
func (l *loopback) post(path string, body []byte) (int, []byte, int, error) {
	for retries := 0; ; retries++ {
		resp, err := l.hc.Post(l.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, retries, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, nil, retries, err
		}
		if resp.StatusCode != http.StatusTooManyRequests || retries == maxRetries {
			return resp.StatusCode, b, retries, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// handlerPost sends one request straight to a handler, without a listener.
func handlerPost(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// request is one scheduled call.
type request struct {
	path string
	body []byte
	// direct computes the response body without the serving layer.
	direct func(d *directNets) []byte
}

// closedLoop sends the requests in order from clients concurrent callers,
// each sending its next request only after the previous one completed. It
// records every successful request's latency in r.lat (ms) and counts each
// request as one checked outcome.
func closedLoop(r *rep, l *loopback, reqs []request, clients int) (retries int64) {
	lat := make([]float64, len(reqs))
	status := make([]int, len(reqs))
	errs := make([]error, len(reqs))
	var next, resent atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				st, _, n, err := l.post(reqs[i].path, reqs[i].body)
				lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				status[i], errs[i] = st, err
				resent.Add(int64(n))
			}
		}()
	}
	wg.Wait()
	for i := range reqs {
		ok := errs[i] == nil && status[i] == http.StatusOK
		r.check(ok, "request %d to %s: status %d, error %v", i, reqs[i].path, status[i], errs[i])
		if ok {
			r.lat = append(r.lat, lat[i])
		}
	}
	return resent.Load()
}

// directNets builds networks with the core entry points, for responses
// computed without the serving layer.
type directNets struct {
	set  core.PaperSetOptions
	ms   *core.MeasuredSet
	nets map[string]*core.Network
}

func (d *directNets) get(name string) *core.Network {
	if n := d.nets[name]; n != nil {
		return n
	}
	var n *core.Network
	switch name {
	case "AS", "RL":
		if d.ms == nil {
			d.ms = core.BuildMeasured(d.set)
		}
		n = d.ms.AS
		if name == "RL" {
			n = d.ms.RL
		}
	default:
		n = core.BuildNetwork(name, d.set)
	}
	d.nets[name] = n
	return n
}

// body marshals v the way the server does: JSON plus a newline.
func body(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("topobench: marshal %T: %v", v, err)) // request and entry types always marshal
	}
	return append(b, '\n')
}

// serveRun is what both serve workloads share: set up a warm server several
// times, run the closed loop on the last one, then re-request a sample of
// distinct keys and compare each body with a fresh window-disabled server's
// and with the direct computation.
func serveRun(r *rep, set core.PaperSetOptions, networks []string, reqs []request, checks []int) error {
	var l *loopback
	reset := func() {
		if l != nil {
			l.close()
			l = nil
		}
	}
	defer reset()
	err := r.setup(reset, func(sp *obs.Span) error {
		var err error
		if l, err = startServer(serve.Options{Tracer: r.tr}, r.sz.Clients); err != nil {
			return err
		}
		// The server builds a network on its first request; one tiny metric
		// request per network moves those builds into set-up.
		for _, name := range networks {
			b := sp.Start("build:" + category(name) + ":" + name)
			st, msg, _, err := l.post("/v1/metric", body(serve.MetricRequest{
				Network: name, Set: set, Metric: "expansion", Sources: 1, Seed: 1,
			}))
			b.End()
			if err != nil || st != http.StatusOK {
				return fmt.Errorf("warm %s: status %d, error %v: %s", name, st, err, msg)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	before := l.srv.Metrics().Snapshot()
	var retries int64
	if err := r.measure(func(sp *obs.Span) error {
		retries = closedLoop(r, l, reqs, r.sz.Clients)
		return nil
	}); err != nil {
		return err
	}
	after := l.srv.Metrics().Snapshot()
	if r.res.Layers != nil {
		registryLayers(before, after, r.res.Layers)
		r.res.Layers["client.retries"] = float64(retries)
		r.res.Layers["client.p90_ms"] = percentile(r.lat, 0.9)
		r.res.Layers["serve.window_wait_s"] = r.res.Layers["serve.coalesce_batches"] * serveWindow.Seconds()
	}

	fresh := serve.New(serve.Options{Window: -1}).Handler()
	direct := &directNets{set: set, nets: map[string]*core.Network{}}
	for _, i := range checks {
		q := reqs[i]
		st, got, _, err := l.post(q.path, q.body)
		r.check(err == nil && st == http.StatusOK, "re-request %d: status %d, error %v", i, st, err)
		r.sum.Write(got) //nolint:errcheck // hash writes never fail
		fst, want := handlerPost(fresh, q.path, q.body)
		r.check(fst == http.StatusOK && bytes.Equal(got, want),
			"request %d: body differs from a fresh window-disabled server's (status %d)", i, fst)
		r.check(bytes.Equal(got, q.direct(direct)), "request %d: body differs from the direct computation", i)
	}
	return nil
}

// suiteNetworks are the networks serve-suite requests.
var suiteNetworks = []string{"Random", "PLRG", "Waxman", "Tiers", "TS", "AS"}

// runServeSuite drives /v1/suite with a closed loop of Clients callers.
// Of the requests, 60% carry a fresh key (spread evenly over the
// networks), 25% repeat an earlier key and 15% duplicate the request just
// before them, so they arrive while it is in flight. The counts are exact
// at every seed; the seed shuffles them and picks the suite seeds.
func runServeSuite(r *rep) error {
	cfg := r.sz.ServeSuite
	cfg.Set.Seed = r.seed
	rng := rand.New(rand.NewSource(r.seed))
	n := r.sz.SuiteRequests
	fresh, repeat := n*60/100, n*25/100
	kinds := make([]byte, 0, n)
	for i := range n {
		switch {
		case i < fresh:
			kinds = append(kinds, 'f')
		case i < fresh+repeat:
			kinds = append(kinds, 'r')
		default:
			kinds = append(kinds, 'd')
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	kinds[0], kinds[slices.Index(kinds, 'f')] = 'f', kinds[0]

	type key struct {
		network string
		seed    int64
	}
	keys := make([]key, fresh)
	base := rng.Int63n(1<<40) + 1
	for i := range keys {
		keys[i] = key{suiteNetworks[i%len(suiteNetworks)], base + int64(i)}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var sched, seen []key
	var firsts []int
	for _, k := range kinds {
		var next key
		switch k {
		case 'f':
			next = keys[len(seen)]
			seen = append(seen, next)
			firsts = append(firsts, len(sched))
		case 'r':
			next = seen[rng.Intn(len(seen))]
		case 'd':
			next = sched[len(sched)-1]
		}
		sched = append(sched, next)
	}
	reqs := make([]request, len(sched))
	for i, k := range sched {
		opts := cfg.Suite
		opts.Seed = k.seed
		network := k.network
		reqs[i] = request{
			path: "/v1/suite",
			body: body(serve.SuiteRequest{Network: network, Set: cfg.Set, Suite: opts}),
			direct: func(d *directNets) []byte {
				n := d.get(network)
				return body(experiments.MakeSuiteEntry(core.RunSuite(n, opts), experiments.Summarize(n)))
			},
		}
	}
	checks := sampleChecks(rng, firsts, r.sz.CheckKeys)
	return serveRun(r, cfg.Set, suiteNetworks, reqs, checks)
}

// sampleChecks picks up to k of the distinct keys, given as the schedule
// index of each one's first request, and returns their indices ascending.
func sampleChecks(rng *rand.Rand, firsts []int, k int) []int {
	var out []int
	for _, p := range rng.Perm(len(firsts))[:min(k, len(firsts))] {
		out = append(out, firsts[p])
	}
	slices.Sort(out)
	return out
}

// metricNetworks are the networks serve-metric requests.
var metricNetworks = []string{"AS", "PLRG", "Random", "Waxman"}

// metricEntry mirrors the body /v1/metric returns.
type metricEntry struct {
	Network string
	Metric  string
	Series  stats.Series
}

// runServeMetric drives /v1/metric with a closed loop of Clients callers:
// expansion or eccentricity with 64, 256 or 512 sources on four networks,
// every combination equally often, each request with its own seed, so no
// two share a key and concurrent ones share sweeps through the coalescer.
func runServeMetric(r *rep) error {
	set := core.PaperSetOptions{Seed: r.seed, Scale: r.sz.MetricScale}
	rng := rand.New(rand.NewSource(r.seed))
	type combo struct {
		network, metric string
		sources         int
	}
	var combos []combo
	for _, nw := range metricNetworks {
		for _, m := range []string{"expansion", "eccentricity"} {
			for _, src := range []int{64, 256, 512} {
				combos = append(combos, combo{nw, m, src})
			}
		}
	}
	n := r.sz.MetricRequests
	order := make([]combo, n)
	for i := range order {
		order[i] = combos[i%len(combos)]
	}
	rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	base := rng.Int63n(1<<40) + 1
	reqs := make([]request, n)
	firsts := make([]int, n)
	for i, c := range order {
		seed := base + int64(i)
		firsts[i] = i
		reqs[i] = request{
			path: "/v1/metric",
			body: body(serve.MetricRequest{Network: c.network, Set: set, Metric: c.metric, Sources: c.sources, Seed: seed}),
			direct: func(d *directNets) []byte {
				eng := ball.NewEngine(d.get(c.network).Graph, 1)
				ent := metricEntry{Network: c.network, Metric: c.metric}
				if c.metric == "expansion" {
					ent.Series = metrics.ExpansionWith(eng, ball.Config{
						MaxSources: c.sources, Rand: rand.New(rand.NewSource(seed)),
					})
				} else {
					ent.Series = metrics.EccentricityDistributionWith(eng, c.sources, 0.1, rand.New(rand.NewSource(seed)))
				}
				return body(&ent)
			},
		}
	}
	checks := sampleChecks(rng, firsts, r.sz.CheckKeys)
	return serveRun(r, set, metricNetworks, reqs, checks)
}
