package obs

import (
	"runtime"
	"sync"
	"time"
)

// Sample is one point of the run's time series: elapsed wall-clock since
// the sampler started, the process memory posture at that instant, and the
// registry's counter/gauge values. Histograms are omitted — they are
// cumulative distributions, and their count/sum already surface through
// /metrics; the time series tracks the cheap scalar signals.
type Sample struct {
	ElapsedMs      int64            `json:"elapsed_ms"`
	HeapBytes      int64            `json:"heap_bytes"`
	SysBytes       int64            `json:"sys_bytes"`
	RSSBytes       int64            `json:"rss_bytes,omitempty"`
	NumGC          int64            `json:"num_gc"`
	GCPauseTotalNs int64            `json:"gc_pause_total_ns"`
	Counters       map[string]int64 `json:"counters,omitempty"`
	Gauges         map[string]int64 `json:"gauges,omitempty"`
}

// Sampler periodically snapshots a registry plus heap/RSS/GC gauges into a
// bounded ring of samples — the live time-series behind run_timeseries.json
// and anything a serving daemon wants to chart. The ring keeps the most
// recent Capacity samples, so a long-running process holds a sliding
// window instead of growing without bound. A nil *Sampler no-ops on every
// method, mirroring the rest of the package's disabled-is-free contract.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	start    time.Time

	mu   sync.Mutex
	ring []Sample
	head int // next write position
	n    int // samples currently held

	stop chan struct{}
	done chan struct{}
}

// DefaultSampleInterval is the sampling period when NewSampler is given a
// non-positive interval. One registry snapshot plus a ReadMemStats costs
// tens of microseconds, so at this period the sampler's overhead is well
// under 1% of wall-clock (the budget recorded in EXPERIMENTS.md).
const DefaultSampleInterval = 250 * time.Millisecond

// DefaultSampleCapacity bounds the ring when NewSampler is given a
// non-positive capacity: 4096 samples ≈ 17 minutes at the default
// interval, a few MB at typical registry sizes.
const DefaultSampleCapacity = 4096

// NewSampler returns a stopped sampler over reg. Non-positive interval or
// capacity select the defaults.
func NewSampler(reg *Registry, interval time.Duration, capacity int) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	if capacity <= 0 {
		capacity = DefaultSampleCapacity
	}
	return &Sampler{
		reg:      reg,
		interval: interval,
		ring:     make([]Sample, capacity),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background sampling goroutine. It takes one sample
// immediately, then one per interval until Stop. No-op on nil.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.start = time.Now()
	s.record()
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.record()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the sampling goroutine, takes one final sample so the series
// always covers the full run, and waits for the goroutine to exit. Safe to
// call once per Start; no-op on nil.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.record()
}

// record appends one sample to the ring, evicting the oldest at capacity.
func (s *Sampler) record() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := s.reg.Snapshot()
	sample := Sample{
		ElapsedMs:      time.Since(s.start).Milliseconds(),
		HeapBytes:      int64(ms.HeapInuse),
		SysBytes:       int64(ms.Sys),
		NumGC:          int64(ms.NumGC),
		GCPauseTotalNs: int64(ms.PauseTotalNs),
		Counters:       snap.Counters,
		Gauges:         snap.Gauges,
	}
	if rss, ok := ReadRSS(); ok {
		sample.RSSBytes = rss
	}
	s.mu.Lock()
	s.ring[s.head] = sample
	s.head = (s.head + 1) % len(s.ring)
	if s.n < len(s.ring) {
		s.n++
	}
	s.mu.Unlock()
}

// Samples returns the held samples in chronological order (nil on a nil
// sampler).
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.head-s.n+i+len(s.ring))%len(s.ring)])
	}
	return out
}

// TimeSeries is the JSON image of a sampler's window, written as
// <out>/run_timeseries.json next to the run manifest.
type TimeSeries struct {
	IntervalMs int64    `json:"interval_ms"`
	Samples    []Sample `json:"samples"`
}

// WriteFile renders the current window as indented JSON at path,
// atomically (temp file + rename). No-op on nil.
func (s *Sampler) WriteFile(path string) error {
	if s == nil {
		return nil
	}
	return writeJSON(path, TimeSeries{IntervalMs: s.interval.Milliseconds(), Samples: s.Samples()})
}
