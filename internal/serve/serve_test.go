package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/cache"
	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// quickSuite is a suite configuration small enough that a Tree request
// completes in tens of milliseconds.
func quickSuite() core.SuiteOptions {
	return core.SuiteOptions{
		Sources: 4, MaxBallSize: 300, EigenRank: 8, LinkSources: 16,
		Seed: 5, SampleBudget: 8, SkipHierarchy: true,
	}
}

func quickSet() core.PaperSetOptions {
	return core.PaperSetOptions{Seed: 3, Scale: 0.12}
}

func suiteBody(t *testing.T) []byte {
	t.Helper()
	req := SuiteRequest{Network: "Tree", Set: quickSet(), Suite: quickSuite()}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postJSON(t *testing.T, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

// soloSuiteBody runs one suite request against a fresh server and returns
// the response bytes — the reference every other serving mode must match.
func soloSuiteBody(t *testing.T, opts Options) []byte {
	t.Helper()
	ts := httptest.NewServer(New(opts).Handler())
	defer ts.Close()
	code, _, body := postJSON(t, ts.URL+"/v1/suite", suiteBody(t))
	if code != http.StatusOK {
		t.Fatalf("solo suite: status %d: %s", code, body)
	}
	return body
}

// TestServeDedup is the singleflight contract: N identical concurrent
// requests execute exactly one suite, every waiter beyond the first counts
// as a dedup hit, and all responses are byte-identical to a solo run.
func TestServeDedup(t *testing.T) {
	want := soloSuiteBody(t, Options{Workers: 2})

	s := New(Options{Workers: 2, MaxInFlight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, hdr, body := postJSON(t, ts.URL+"/v1/suite", suiteBody(t))
			if code != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, code, body)
				return
			}
			if src := hdr.Get("X-Topocmp-Source"); src != "computed" && src != "dedup" {
				t.Errorf("request %d: source %q", i, src)
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("request %d: body differs from solo run (%d vs %d bytes)", i, len(b), len(want))
		}
	}
	if got := s.reg.Counter("serve.suite_runs").Value(); got != 1 {
		t.Fatalf("suite_runs = %d, want 1", got)
	}
	if got := s.reg.Counter("serve.dedup_hits").Value(); got != n-1 {
		t.Fatalf("dedup_hits = %d, want %d", got, n-1)
	}
	if got := s.reg.Counter("serve.requests").Value(); got != n {
		t.Fatalf("requests = %d, want %d", got, n)
	}
}

// TestServeMatchesDirect pins the byte-identity contract across every
// serving mode: the response body equals the deterministic marshal of the
// entry a direct core.RunSuite produces, whether the server computed it
// (with two workers or one), memoized it, or restored it from a CLI-warmed
// disk cache.
func TestServeMatchesDirect(t *testing.T) {
	// Direct reference: what the CLI pipeline would compute and cache.
	n := core.BuildNetwork("Tree", quickSet())
	res := core.RunSuite(n, quickSuite())
	ent := experiments.MakeSuiteEntry(res, experiments.Summarize(n))
	want, err := marshalBody(ent)
	if err != nil {
		t.Fatal(err)
	}

	if got := soloSuiteBody(t, Options{Workers: 2}); !bytes.Equal(got, want) {
		t.Fatalf("computed body differs from direct run")
	}
	if got := soloSuiteBody(t, Options{Workers: 1}); !bytes.Equal(got, want) {
		t.Fatalf("single-worker body differs from direct run")
	}

	// Disk-cache path: warm the store the way a CLI run would, then serve
	// from a fresh server that computes nothing.
	dir := t.TempDir()
	store, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{Set: quickSet(), Suite: quickSuite()}
	if err := store.Put(experiments.SuiteKey(cfg, "Tree"), ent); err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Cache: store})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, hdr, body := postJSON(t, ts.URL+"/v1/suite", suiteBody(t))
	if code != http.StatusOK {
		t.Fatalf("cache-path status %d: %s", code, body)
	}
	if src := hdr.Get("X-Topocmp-Source"); src != "cache" {
		t.Fatalf("source = %q, want cache", src)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cache-served body differs from direct run")
	}
	if got := s.reg.Counter("serve.suite_runs").Value(); got != 0 {
		t.Fatalf("suite_runs = %d, want 0 (cache hit)", got)
	}

	// Memo path: a second identical request on a compute server attaches to
	// the completed flight.
	s2 := New(Options{Workers: 2})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	postJSON(t, ts2.URL+"/v1/suite", suiteBody(t))
	_, hdr2, body2 := postJSON(t, ts2.URL+"/v1/suite", suiteBody(t))
	if src := hdr2.Get("X-Topocmp-Source"); src != "dedup" {
		t.Fatalf("memo source = %q, want dedup", src)
	}
	if !bytes.Equal(body2, want) {
		t.Fatalf("memo-served body differs from direct run")
	}
	if got := s2.reg.Counter("serve.suite_runs").Value(); got != 1 {
		t.Fatalf("suite_runs = %d, want 1", got)
	}
}

// TestServeMetricSharedEngine checks the direct metric path: concurrent
// expansion and eccentricity requests from distinct seeds share one engine
// per network, each runs exactly once, and every response is byte-identical
// to a fresh server's answer to that request alone.
func TestServeMetricSharedEngine(t *testing.T) {
	metricBody := func(seed int64, metric string) []byte {
		b, err := json.Marshal(MetricRequest{
			Network: "Tree", Set: quickSet(), Metric: metric, Sources: 32, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	seeds := []int64{1, 2, 3, 4}
	metricNames := []string{"expansion", "eccentricity"}
	want := map[string][]byte{}
	for _, seed := range seeds {
		for _, m := range metricNames {
			ts := httptest.NewServer(New(Options{Workers: 2}).Handler())
			code, _, body := postJSON(t, ts.URL+"/v1/metric", metricBody(seed, m))
			ts.Close()
			if code != http.StatusOK {
				t.Fatalf("solo metric: status %d: %s", code, body)
			}
			want[fmt.Sprintf("%s/%d", m, seed)] = body
		}
	}

	s := New(Options{Workers: 2, MaxInFlight: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var wg sync.WaitGroup
	for _, seed := range seeds {
		for _, m := range metricNames {
			wg.Add(1)
			go func(seed int64, m string) {
				defer wg.Done()
				code, _, body := postJSON(t, ts.URL+"/v1/metric", metricBody(seed, m))
				if code != http.StatusOK {
					t.Errorf("metric %s/%d: status %d: %s", m, seed, code, body)
					return
				}
				if !bytes.Equal(body, want[fmt.Sprintf("%s/%d", m, seed)]) {
					t.Errorf("metric %s/%d: body differs from a fresh server's", m, seed)
				}
			}(seed, m)
		}
	}
	wg.Wait()
	if got, n := s.reg.Counter("serve.metric_runs").Value(), int64(len(seeds)*len(metricNames)); got != n {
		t.Fatalf("metric_runs = %d, want %d", got, n)
	}
}

// noCache is the cached() stub for white-box serveKeyed tests.
func noCache() (any, bool) { return nil, false }

// TestServeSaturation pins bounded admission deterministically with a
// blocking compute: with MaxInFlight=1 and one computation in flight, a
// request for a different key is shed with 429 + Retry-After, while a
// request for the same key attaches instead of shedding.
func TestServeSaturation(t *testing.T) {
	s := New(Options{Workers: 2, MaxInFlight: 1})
	block := make(chan struct{})
	started := make(chan struct{})
	first := httptest.NewRecorder()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.serveKeyed(first, context.Background(), "k1", "x", noCache,
			func(ctx context.Context, _ int) (any, error) {
				close(started)
				<-block
				return &metricEntry{Network: "a"}, nil
			})
	}()
	<-started

	shed := httptest.NewRecorder()
	s.serveKeyed(shed, context.Background(), "k2", "x", noCache,
		func(ctx context.Context, _ int) (any, error) {
			t.Error("saturated compute ran")
			return nil, nil
		})
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", shed.Code)
	}
	if shed.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.reg.Counter("serve.rejected").Value(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	// Same key attaches past the admission bound.
	attached := httptest.NewRecorder()
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.serveKeyed(attached, context.Background(), "k1", "x", noCache,
			func(ctx context.Context, _ int) (any, error) {
				t.Error("dedup-able compute ran twice")
				return nil, nil
			})
	}()
	for s.reg.Counter("serve.dedup_hits").Value() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if first.Code != http.StatusOK || attached.Code != http.StatusOK {
		t.Fatalf("codes = %d, %d, want 200, 200", first.Code, attached.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), attached.Body.Bytes()) {
		t.Fatal("attached body differs from initiator's")
	}
}

// TestServeBackToBackNoReject pins the admission slot's release order: a
// closed-loop client that sends its next request the moment the previous
// response arrives must never be shed, even at MaxInFlight=1, because the
// finished computation frees its slot before it wakes its waiters. Holding
// the server lock while the computation finishes makes the order
// observable: no response may arrive before the slot is released.
func TestServeBackToBackNoReject(t *testing.T) {
	s := New(Options{Workers: 2, MaxInFlight: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		s.serveKeyed(httptest.NewRecorder(), context.Background(), "k0", "x", noCache,
			func(ctx context.Context, _ int) (any, error) {
				close(started)
				<-release
				return &metricEntry{Network: "a"}, nil
			})
	}()
	<-started
	s.mu.Lock()
	close(release)
	select {
	case <-returned:
		t.Error("response delivered while the admission slot was still held")
	case <-time.After(50 * time.Millisecond):
	}
	s.mu.Unlock()
	<-returned

	for i := 1; i <= 500; i++ {
		w := httptest.NewRecorder()
		s.serveKeyed(w, context.Background(), fmt.Sprintf("k%d", i), "x", noCache,
			func(ctx context.Context, _ int) (any, error) {
				return &metricEntry{Network: "a"}, nil
			})
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, w.Code)
		}
	}
	if got := s.reg.Counter("serve.rejected").Value(); got != 0 {
		t.Fatalf("rejected = %d, want 0", got)
	}
}

// TestServeCancellation threads a waiter's deadline into the computation:
// when the only waiter gives up, the compute context is canceled, the
// waiter sees 504, and the errored flight is forgotten so a retry computes.
func TestServeCancellation(t *testing.T) {
	s := New(Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	computeCanceled := make(chan struct{})
	started := make(chan struct{})
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveKeyed(w, ctx, "k1", "x", noCache,
			func(cctx context.Context, _ int) (any, error) {
				close(started)
				<-cctx.Done()
				close(computeCanceled)
				return nil, cctx.Err()
			})
	}()
	<-started
	cancel()
	<-done
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", w.Code)
	}
	select {
	case <-computeCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context never canceled after last waiter left")
	}
	// The errored flight must not be memoized.
	for i := 0; i < 5000; i++ {
		s.mu.Lock()
		_, present := s.flights["k1"]
		s.mu.Unlock()
		if !present {
			break
		}
		time.Sleep(time.Millisecond)
	}
	w2 := httptest.NewRecorder()
	s.serveKeyed(w2, context.Background(), "k1", "x", noCache,
		func(cctx context.Context, _ int) (any, error) {
			return &metricEntry{Network: "retry"}, nil
		})
	if w2.Code != http.StatusOK {
		t.Fatalf("retry status = %d: %s", w2.Code, w2.Body.String())
	}
}

// TestServeBadRequests covers the request-validation surface.
func TestServeBadRequests(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cases := []struct {
		path string
		body string
		want int
	}{
		{"/v1/suite", `{"Network":"Nope"}`, http.StatusBadRequest},
		{"/v1/suite", `{"Network":"Tree","Bogus":1}`, http.StatusBadRequest},
		{"/v1/suite", `{`, http.StatusBadRequest},
		{"/v1/metric", `{"Network":"Tree","Metric":"distortion"}`, http.StatusBadRequest},
		{"/v1/metric", `{"Network":"Nope","Metric":"expansion"}`, http.StatusBadRequest},
		// Network-set options every builder would otherwise accept: a
		// negative scale built the minimum-size set, 1e6 a build ten
		// thousand times the 1m preset inside the request.
		{"/v1/suite", `{"Network":"Tree","Set":{"Scale":-1}}`, http.StatusBadRequest},
		{"/v1/suite", `{"Network":"AS","Set":{"Scale":1e6}}`, http.StatusBadRequest},
		{"/v1/suite", `{"Network":"RL","Set":{"AliasFailure":1.5}}`, http.StatusBadRequest},
		{"/v1/metric", `{"Network":"Tree","Metric":"expansion","Set":{"Scale":-1}}`, http.StatusBadRequest},
		{"/v1/metric", `{"Network":"PLRG","Metric":"eccentricity","Set":{"Scale":1e6}}`, http.StatusBadRequest},
		{"/v1/metric", `{"Network":"AS","Metric":"expansion","Set":{"AliasFailure":-0.1}}`, http.StatusBadRequest},
		// Bin widths the eccentricity histogram cannot honour: -1 answered
		// the 0.1 series under a cache key of its own, and 1e-300 one point
		// at x = -9.2e-282 because the bin index overflowed int.
		{"/v1/metric", `{"Network":"Tree","Metric":"eccentricity","BinWidth":-1}`, http.StatusBadRequest},
		{"/v1/metric", `{"Network":"Tree","Metric":"eccentricity","BinWidth":1e-300}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _, body := postJSON(t, ts.URL+c.path, []byte(c.body))
		if code != c.want {
			t.Errorf("POST %s %s: status %d, want %d (%s)", c.path, c.body, code, c.want, body)
		}
	}
	for _, name := range []string{"serve.suite_runs", "serve.metric_runs"} {
		if got := s.reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0: a rejected request was admitted", name, got)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after bad requests: %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/suite")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/suite: %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/networks")
	if err != nil {
		t.Fatal(err)
	}
	var nets networksResponse
	if err := json.NewDecoder(resp.Body).Decode(&nets); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nets.Networks) != len(experiments.AllTableNames) {
		t.Fatalf("networks = %v", nets.Networks)
	}
}

// TestServeBadToleranceFractions pins the input check in front of
// admission: a tolerance fraction outside [0, 1] used to reach
// metrics.removalCurve and panic with a slice bound beyond the node count,
// taking the daemon down, and a negative count or size ran under a cache
// key of its own. Each must answer 400, and the daemon must keep serving.
func TestServeBadToleranceFractions(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"Network":"Mesh","Suite":{"Sources":2,"EigenRank":5,"SkipHierarchy":true,"ToleranceFractions":[1.5]}}`,
		`{"Network":"Mesh","Suite":{"Sources":2,"EigenRank":5,"SkipHierarchy":true,"ToleranceFractions":[0,-0.1]}}`,
		`{"Network":"Mesh","Suite":{"Sources":-1,"EigenRank":5,"SkipHierarchy":true}}`,
		`{"Network":"Mesh","Suite":{"Sources":2,"MaxBallSize":-1,"EigenRank":5,"SkipHierarchy":true}}`,
		`{"Network":"Mesh","Suite":{"Sources":2,"EigenRank":5,"LinkSources":-1,"SkipHierarchy":true}}`,
		`{"Network":"Mesh","Suite":{"Sources":2,"EigenRank":-1,"SkipHierarchy":true}}`,
		`{"Network":"Mesh","Suite":{"Sources":2,"EigenRank":5,"SampleBudget":-1,"SkipHierarchy":true}}`,
	} {
		code, _, out := postJSON(t, ts.URL+"/v1/suite", []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400 (%s)", body, code, out)
		}
	}
	if got := s.reg.Counter("serve.suite_runs").Value(); got != 0 {
		t.Fatalf("suite runs = %d, want 0: a rejected request was admitted", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after bad requests: %d", resp.StatusCode)
	}
}

// TestServeComputePanic turns a panic in the compute goroutine into the
// flight's error: the waiter gets 500, the admission slot and the flight
// are released, and a retry of the same key computes afresh.
func TestServeComputePanic(t *testing.T) {
	s := New(Options{Workers: 1, MaxInFlight: 1})
	w := httptest.NewRecorder()
	s.serveKeyed(w, context.Background(), "k", "x", noCache,
		func(ctx context.Context, _ int) (any, error) {
			var fractions []float64
			return fractions[3], nil
		})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking compute: status %d, want 500 (%s)", w.Code, w.Body.String())
	}
	w2 := httptest.NewRecorder()
	s.serveKeyed(w2, context.Background(), "k", "x", noCache,
		func(ctx context.Context, _ int) (any, error) {
			return &metricEntry{Network: "a"}, nil
		})
	if w2.Code != http.StatusOK {
		t.Fatalf("retry after panic: status %d, want 200 (%s)", w2.Code, w2.Body.String())
	}
}

// TestServeWorkerPanic: a panic on one of the ball engine's worker
// goroutines reaches the compute goroutine, so the request gets 500 instead
// of the daemon ending, and a retry of the same key computes afresh.
func TestServeWorkerPanic(t *testing.T) {
	s := New(Options{Workers: 2})
	g := canonical.Tree(3, 4)
	var panicked atomic.Bool
	compute := func(ctx context.Context, _ int) (any, error) {
		cfg := ball.Config{MaxSources: 8, Rand: rand.New(rand.NewSource(1))}
		pts := ball.NewEngine(g, 2).BallPoints(cfg, 1, func(sub *graph.Graph, _ *rand.Rand) (float64, bool) {
			if panicked.CompareAndSwap(false, true) {
				panic("per-ball kernel failed")
			}
			return float64(sub.NumEdges()), true
		})
		return &metricEntry{Network: fmt.Sprint(len(pts))}, nil
	}
	w := httptest.NewRecorder()
	s.serveKeyed(w, context.Background(), "k", "x", noCache, compute)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("worker panic: status %d, want 500 (%s)", w.Code, w.Body.String())
	}
	w2 := httptest.NewRecorder()
	s.serveKeyed(w2, context.Background(), "k", "x", noCache, compute)
	if w2.Code != http.StatusOK {
		t.Fatalf("retry after worker panic: status %d, want 200 (%s)", w2.Code, w2.Body.String())
	}
}
