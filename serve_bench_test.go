package topocmp

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/serve"
)

// serveBenchRow is one line of BENCH_serve.json: throughput of the serving
// layer's singleflight dedup against its naive counterpart. One op is a
// burst of Requests concurrent HTTP requests; SpeedupVsNaive is filled on
// the optimized row once its naive twin has run, so the committed file
// carries the dedup win explicitly. Rewritten after every benchmark so a
// partial -bench run still leaves a consistent file.
type serveBenchRow struct {
	Name           string  `json:"name"`
	Mode           string  `json:"mode"`
	Requests       int     `json:"requests_per_op"`
	SecondsPerOp   float64 `json:"seconds_per_op"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     float64 `json:"bytes_per_op"`
	SpeedupVsNaive float64 `json:"speedup_vs_naive,omitempty"`
}

var serveBench struct {
	sync.Mutex
	rows []serveBenchRow
}

// serveBenchPairs maps each optimized sub-benchmark to the naive twin its
// speedup is computed against.
var serveBenchPairs = map[string]string{
	"BenchmarkServe/dedup8": "BenchmarkServe/naive8",
}

// benchServe runs fn (one burst of requests concurrent requests) b.N times
// with alloc accounting and records the row.
func benchServe(b *testing.B, mode string, requests int, fn func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	row := serveBenchRow{
		Name:         b.Name(),
		Mode:         mode,
		Requests:     requests,
		SecondsPerOp: b.Elapsed().Seconds() / n,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / n,
		BytesPerOp:   float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
	serveBench.Lock()
	defer serveBench.Unlock()
	replaced := false
	for i := range serveBench.rows {
		if serveBench.rows[i].Name == row.Name {
			serveBench.rows[i] = row
			replaced = true
			break
		}
	}
	if !replaced {
		serveBench.rows = append(serveBench.rows, row)
	}
	// Fill the speedup column wherever both sides of a pair are present.
	bySec := map[string]float64{}
	for _, r := range serveBench.rows {
		bySec[r.Name] = r.SecondsPerOp
	}
	for i := range serveBench.rows {
		naive, ok := serveBenchPairs[serveBench.rows[i].Name]
		if !ok {
			continue
		}
		if ns, ok := bySec[naive]; ok && serveBench.rows[i].SecondsPerOp > 0 {
			serveBench.rows[i].SpeedupVsNaive = ns / serveBench.rows[i].SecondsPerOp
		}
	}
	data, err := json.MarshalIndent(serveBench.rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_serve.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// serveBenchSet is the graph under test for every serve benchmark: the
// scaled-down Random network (~1000 nodes), heavy enough that suite
// compute dominates HTTP plumbing.
func serveBenchSet() core.PaperSetOptions {
	return core.PaperSetOptions{Seed: 3, Scale: 0.2}
}

// serveBenchSuiteBody marshals the identical suite request the dedup
// benchmarks replay; seed varies per iteration so every burst is a cold
// cache key (the dedup under test is in-flight sharing, not memo serving).
func serveBenchSuiteBody(b *testing.B, seed int64) []byte {
	body, err := json.Marshal(serve.SuiteRequest{
		Network: "Random",
		Set:     serveBenchSet(),
		Suite: core.SuiteOptions{
			Sources: 8, MaxBallSize: 600, EigenRank: 8, LinkSources: 32,
			SampleBudget: 8, SkipHierarchy: true, Seed: seed,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// fireBurst posts every body concurrently and drains the responses; the
// burst is one benchmark op.
func fireBurst(b *testing.B, url string, bodies [][]byte) {
	var wg sync.WaitGroup
	for _, body := range bodies {
		wg.Add(1)
		go func(body []byte) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
		}(body)
	}
	wg.Wait()
}

// postOnce is the setup-path request helper (warming).
func postOnce(b *testing.B, url string, body []byte) []byte {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	return out
}

// BenchmarkServe measures the daemon's singleflight dedup end to end over
// real HTTP, writing BENCH_serve.json: dedup8 vs naive8 fire 8 concurrent
// identical suite requests per op. With singleflight the burst executes one
// suite; with dedup disabled every request computes, serialized by the
// worker semaphore — the dedup row's speedup_vs_naive is the acceptance
// figure (>= 5x).
func BenchmarkServe(b *testing.B) {
	// One long-lived server per mode, fresh suite seed per op so every
	// burst recomputes. MaxInFlight must cover the naive burst.
	seed := int64(1)
	for _, m := range []struct {
		name    string
		disable bool
	}{{"dedup8", false}, {"naive8", true}} {
		b.Run(m.name, func(b *testing.B) {
			s := serve.New(serve.Options{MaxInFlight: 16, DisableDedup: m.disable})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			// Warm the network memo so the first op doesn't pay graph
			// construction (both modes, identically).
			postOnce(b, ts.URL+"/v1/suite", serveBenchSuiteBody(b, 1<<40))
			mode := "singleflight"
			if m.disable {
				mode = "naive"
			}
			benchServe(b, mode, 8, func() {
				seed++
				body := serveBenchSuiteBody(b, seed)
				bodies := make([][]byte, 8)
				for i := range bodies {
					bodies[i] = body
				}
				fireBurst(b, ts.URL+"/v1/suite", bodies)
			})
		})
	}
}
