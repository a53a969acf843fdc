// Package obs is the reproduction pipeline's stdlib-only observability
// layer: hierarchical spans (a lightweight trace of what work ran, where,
// under which parent), a registry of named counters/gauges/duration
// histograms, and a per-run manifest that makes an output directory
// self-describing.
//
// Everything is nil-safe by design: a nil *Tracer, *Span, *Registry,
// *Counter, *Gauge or *Histogram accepts every call as a no-op, so
// instrumented code never branches on "observability enabled" and the hot
// path of a disabled run pays at most a nil check. An enabled counter costs
// one atomic add. Spans record monotonic durations (time.Since on the
// monotonic clock) and are exported either as a Chrome trace-event JSON
// (chrome://tracing, Perfetto) or as an indented human-readable tree.
//
// Beyond the in-memory exit-time exports, the package is a live
// observability plane: Snapshot.WritePrometheus renders the registry in
// the Prometheus text exposition (histogram buckets included), Sampler
// snapshots the registry plus heap/RSS/GC gauges into a bounded
// time-series ring (persisted as run_timeseries.json), Progress tracks
// the run's stage DAG (pending/running/cached/done, work-counter
// completion fractions, ETA), and StartDebugServer mounts /metrics,
// /debug/progress, /debug/trace and /debug/pprof/* on a stdlib net/http
// server while the run executes. Everything stays stdlib-only and
// dependency-free so every internal package can link against it, and
// none of it influences results — the endpoints and the sampler only read
// snapshots.
package obs
