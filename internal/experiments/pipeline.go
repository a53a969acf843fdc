// Pipeline scheduling and result caching for the Runner.
//
// Prefetch turns the lazy per-artifact evaluation into a two-stage DAG:
// network construction (the measurement pipeline or a generator invocation)
// fans out over a worker pool, and each network's metric suite is scheduled
// the moment its network is ready. Both stages draw tokens from one
// weighted semaphore of Workers tokens — a build holds one token, a suite
// run holds as many tokens as the engine width it was granted — so the
// pipeline plus the suites' internal parallelism never oversubscribe the
// budget. Because every network and every suite seeds its own RNGs, the
// results are bit-identical to the sequential path at every width.
//
// The cache layer persists one entry per (paper-set options, suite options,
// network) triple — the full suite series plus a graph-free summary
// (description, degree sequence) — and one entry per derived artifact
// (variant panels, extras). A re-run with an unchanged configuration
// restores everything from disk and performs zero network builds and zero
// suite runs; changing the scale or seed changes the keys and invalidates
// exactly the affected entries.
package experiments

import (
	"runtime"
	"sync"
	"time"

	"topocmp/internal/cache"
	"topocmp/internal/core"
)

// Stats counts the expensive pipeline operations performed by this runner,
// plus the traffic of its cache store. A warm-cache run reports zero
// NetworkBuilds and zero SuiteRuns.
type Stats struct {
	NetworkBuilds     int64 // measurement-pipeline + generator invocations
	SuiteRuns         int64 // full metric-suite computations
	CacheHits         int64
	CacheMisses       int64
	CachePuts         int64
	CacheDecodeErrors int64 // corrupt entries evicted and recomputed
}

// Stats returns the runner's operation counts so far.
func (r *Runner) Stats() Stats {
	st := Stats{NetworkBuilds: r.netBuilds.Value(), SuiteRuns: r.suiteRuns.Value()}
	cs := r.Cache.Stats()
	st.CacheHits, st.CacheMisses, st.CachePuts = cs.Hits, cs.Misses, cs.Puts
	st.CacheDecodeErrors = cs.DecodeErrors
	return st
}

// workers resolves the pipeline's concurrency budget.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.NumCPU()
}

// Sem is a weighted counting semaphore, the pipeline's
// no-oversubscription primitive: Acquire(k) blocks until k of the n tokens
// are free. Suite runs acquire their engine width and builds 1, here and in
// the serving layer, whose metric runs acquire the whole budget. Acquired
// weights never exceed the initial count, so waiters always make progress.
type Sem struct {
	mu    sync.Mutex
	cond  *sync.Cond
	avail int
}

// NewSem returns a semaphore holding n tokens.
func NewSem(n int) *Sem {
	s := &Sem{avail: n}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Acquire takes k tokens, blocking until they are free.
func (s *Sem) Acquire(k int) {
	s.mu.Lock()
	for s.avail < k {
		s.cond.Wait()
	}
	s.avail -= k
	s.mu.Unlock()
}

// Release returns k tokens.
func (s *Sem) Release(k int) {
	s.mu.Lock()
	s.avail += k
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Prefetch builds every Figure 1 network and runs every metric suite under
// the runner's worker budget, so the figure accessors afterwards only read
// memos. Cached entries are restored first (no tokens needed); the cache
// misses are then scheduled as build→suite chains, each suite granted an
// equal share of the budget, clamped to [1, Workers]. Calling Prefetch is
// optional — the accessors compute lazily without it — and idempotent.
func (r *Runner) Prefetch() {
	var misses []string
	for _, name := range AllTableNames {
		// Registration order is /debug/progress display order; restored
		// entries surface as cached, scheduled ones as pending until their
		// goroutine claims them.
		st := r.progressStage(name)
		if r.tryRestore(name) {
			st.Cached()
		} else {
			misses = append(misses, name)
		}
	}
	if len(misses) == 0 {
		return
	}
	j := r.workers()
	width := j / len(misses)
	if width < 1 {
		width = 1
	}
	tokens := NewSem(j)
	semWait := r.metrics.Histogram("pipeline.sem_wait")
	acquire := func(k int) {
		t0 := time.Now()
		tokens.Acquire(k)
		semWait.Observe(time.Since(t0))
	}
	var wg sync.WaitGroup
	for _, name := range misses {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			sp := r.Trace.Start("net:" + name)
			defer sp.End()
			r.progressStage(name).Run()
			acquire(1)
			bsp := sp.Start("build:" + name)
			r.Network(name) // AS and RL share one measurement-pipeline build
			bsp.End()
			tokens.Release(1)
			acquire(width)
			r.runSuite(name, width, sp)
			tokens.Release(width)
		}(name)
	}
	wg.Wait()
}

// SuiteKey is the content address of one network's suite entry under the
// given configuration. The serving layer (internal/serve) computes the same
// key for its singleflight dedup and its cache-backed fast path, so a store
// warmed by a CLI run satisfies daemon requests and vice versa — the dedup
// key contract IS the cache key contract.
func SuiteKey(cfg Config, network string) string {
	return cache.Key(cfg.Set.CacheKey(), cfg.Suite.CacheKey(), "net:"+network)
}

// suiteKey is the content address of one network's suite entry.
func (r *Runner) suiteKey(name string) string {
	return SuiteKey(r.Cfg, name)
}

// tryRestore fills the suite and summary memos for name from the cache,
// reporting whether the result is now available without computation.
func (r *Runner) tryRestore(name string) bool {
	r.mu.Lock()
	done := r.suites[name] != nil
	r.mu.Unlock()
	if done {
		return true
	}
	var ent SuiteEntry
	if !r.Cache.Get(r.suiteKey(name), &ent) {
		return false
	}
	res, sum := ent.Restore()
	r.mu.Lock()
	if r.suites[name] == nil {
		r.suites[name] = res
		r.summaries[name] = sum
	}
	r.mu.Unlock()
	return true
}

// NetworkSummary is the graph-free description of a network that the
// figure renderers need: Table 1's row, Figure 6's degree CCDF input and
// Figure 5's correlation degrees. It rides along in the suite cache entry
// so warm runs never rebuild the graphs.
type NetworkSummary struct {
	Desc    core.Description
	Degrees []int // indexed by node id
	// CoreDegrees is set for router-level networks, whose link values are
	// computed on the core graph (footnote 29): Figure 5 correlates those
	// values against the core's degrees.
	CoreDegrees []int
}

// Summarize builds the graph-free summary of a network — the piece of a
// SuiteEntry that MakeSuiteEntry cannot derive from the suite result alone.
// Exported for the serving layer, which assembles entries outside a Runner.
func Summarize(n *core.Network) *NetworkSummary { return summarize(n) }

func summarize(n *core.Network) *NetworkSummary {
	s := &NetworkSummary{Desc: n.Describe(), Degrees: n.Graph.Degrees()}
	if n.Overlay != nil {
		c, _ := n.Graph.Core()
		s.CoreDegrees = c.Degrees()
	}
	return s
}

// summaryOf returns the named network's summary, from the memo, the cache
// (where it rides with the suite entry) or — cold and cacheless — by
// building the network. It never triggers a suite run, so inventory-only
// paths (Table 1, Figure 6) stay as cheap as before.
func (r *Runner) summaryOf(name string) *NetworkSummary {
	r.onceFor("sum:" + name).Do(func() {
		r.mu.Lock()
		have := r.summaries[name] != nil
		r.mu.Unlock()
		if have || r.tryRestore(name) {
			return
		}
		n := r.Network(name)
		if n == nil {
			return // leave the memo empty; the caller panics below
		}
		sum := summarize(n)
		r.mu.Lock()
		if r.summaries[name] == nil {
			r.summaries[name] = sum
		}
		r.mu.Unlock()
	})
	r.mu.Lock()
	sum := r.summaries[name]
	r.mu.Unlock()
	if sum == nil {
		panic("experiments: unknown network \"" + name + "\"")
	}
	return sum
}

// SuiteEntry is the gob image of one network's suite result plus its
// summary. core.SuiteResult itself is not encodable — Network carries the
// graph and policy structures, which have unexported fields — so the entry
// holds only the result's core.Curves and rebuilds a stub Network (name and
// category are all the table builders read) on restore. gob round-trips
// float64 bits exactly, so a restored result renders byte-identically to a
// fresh one, and encoding/json promotes the embedded fields in place, so a
// /v1/suite body lists them after Summary.
// Exported because the serving layer stores and restores the same wire type
// under the same SuiteKey — gob matches fields structurally, so entries
// written by either side decode on the other.
type SuiteEntry struct {
	Name     string
	Category core.Category
	Summary  NetworkSummary
	core.Curves
}

// MakeSuiteEntry flattens a computed suite result and its summary into the
// cacheable entry form.
func MakeSuiteEntry(res *core.SuiteResult, sum *NetworkSummary) *SuiteEntry {
	return &SuiteEntry{Name: res.Network.Name, Category: res.Network.Category,
		Summary: *sum, Curves: res.Curves}
}

// Restore rebuilds the in-memory suite result (with a stub Network) and the
// network summary from the entry.
func (e *SuiteEntry) Restore() (*core.SuiteResult, *NetworkSummary) {
	sum := e.Summary
	return &core.SuiteResult{Network: &core.Network{Name: e.Name, Category: e.Category},
		Curves: e.Curves}, &sum
}

// cachedArtifact memoizes a derived artifact (variant panel, parameter
// sweep, extras) in the disk cache. With no cache attached it simply
// computes — the benchmarks keep timing the real work — and compute must
// depend only on the runner's configuration, which the key captures.
func cachedArtifact[T any](r *Runner, name string, compute func() T) T {
	if r.Cache == nil {
		return compute()
	}
	key := cache.Key(r.Cfg.Set.CacheKey(), r.Cfg.Suite.CacheKey(), "artifact:"+name)
	var v T
	if r.Cache.Get(key, &v) {
		return v
	}
	v = compute()
	r.Cache.Put(key, v) //nolint:errcheck // best-effort persist
	return v
}
