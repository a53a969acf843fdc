package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"runtime"
	"syscall"
	"time"

	"topocmp/internal/obs"
)

// repResult is what one repetition reports. The child fills it; the parent
// adds what it measures from outside the child (peak heap from the GC
// trace, peak RSS, the host calibration) to Metrics.
type repResult struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Start     time.Time `json:"start"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Problems  []string  `json:"problems,omitempty"`
	// Digest hashes the workload's outputs; repetitions of one workload at
	// one seed must agree on it.
	Digest string    `json:"digest"`
	SetupS []float64 `json:"setup_s"`
	// Metrics holds the end-to-end values, Layers (traced repetitions only)
	// the per-layer ones.
	Metrics map[string]float64 `json:"metrics"`
	Layers  map[string]float64 `json:"layers,omitempty"`
}

// maxProblems bounds how many failed checks a repetition describes.
const maxProblems = 20

// rep is one repetition in progress inside a child process.
type rep struct {
	seed  int64
	sz    sizes
	tr    *obs.Tracer // nil when untraced: every span call is then a no-op
	clock *spanClock
	res   *repResult
	sum   hash.Hash
	wall  time.Duration
	lat   []float64 // per-operation latencies of the measured phase, ms
}

func newRep(workload string, seed int64, traced bool, sz sizes) *rep {
	r := &rep{seed: seed, sz: sz, sum: sha256.New(), res: &repResult{
		Workload: workload, Seed: seed, Traced: traced, Start: time.Now(),
		Metrics: map[string]float64{},
	}}
	if traced {
		r.tr, r.clock = newTracer()
		r.res.Layers = map[string]float64{}
	}
	return r
}

// setup runs f SetupReps times, each under its own setup#<k> span and from
// a freshly collected heap, and records each duration. reset, untimed,
// drops the previous set-up's state first.
func (r *rep) setup(reset func(), f func(sp *obs.Span) error) error {
	for k := range r.sz.SetupReps {
		reset()
		runtime.GC()
		m0 := readMem()
		sp := r.tr.Root().Start(fmt.Sprintf("setup#%d", k))
		t0 := time.Now()
		err := f(sp)
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.res.SetupS = append(r.res.SetupS, d.Seconds())
		r.memPhase("setup", m0)
	}
	return nil
}

// measure times f, the measured phase, for wall clock and CPU. The heap is
// collected first, so every repetition starts the phase from the same
// state.
func (r *rep) measure(f func(sp *obs.Span) error) error {
	runtime.GC()
	m0 := readMem()
	c0 := cpuSeconds()
	sp := r.tr.Root().Start("measured")
	t0 := time.Now()
	err := f(sp)
	r.wall = time.Since(t0)
	sp.End()
	r.res.Metrics["cpu_s"] = cpuSeconds() - c0
	r.memPhase("measured", m0)
	if err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	return nil
}

// memPhase ends a phase with a forced collection, traced or not: the GC
// trace then records the heap at every phase boundary, and each phase
// starts the collector's schedule from the same point, which keeps
// peak_heap_mb from flipping between runs. Traced repetitions also record
// the phase's allocation (TotalAlloc delta) and the heap still live after
// the collection; set-up reports its last repetition.
func (r *rep) memPhase(phase string, m0 runtime.MemStats) {
	m1 := readMem()
	runtime.GC()
	if r.res.Layers == nil {
		return
	}
	r.res.Layers["mem."+phase+".alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.res.Layers["mem."+phase+".live_mb"] = float64(readMem().HeapAlloc) / (1 << 20)
}

// check counts one verified outcome; a false one is a failure.
func (r *rep) check(ok bool, format string, args ...any) {
	r.res.Attempted++
	if ok {
		return
	}
	r.res.Failed++
	if len(r.res.Problems) < maxProblems {
		r.res.Problems = append(r.res.Problems, fmt.Sprintf(format, args...))
	}
}

// finish derives the end-to-end metrics from the measured phase and the
// operation latencies. A batch workload records one operation, the whole
// phase.
func (r *rep) finish() {
	if len(r.lat) == 0 {
		r.lat = []float64{r.wall.Seconds() * 1000}
	}
	m := r.res.Metrics
	m["wall_s"] = r.wall.Seconds()
	m["setup_s"] = median(r.res.SetupS)
	m["rps"] = float64(len(r.lat)) / r.wall.Seconds()
	m["p50_ms"] = percentile(r.lat, 0.5)
	m["p90_ms"] = percentile(r.lat, 0.9)
	m["ops"] = float64(len(r.lat))
	r.res.Digest = hex.EncodeToString(r.sum.Sum(nil))
	r.res.Correct = r.res.Failed == 0
	if r.tr != nil {
		spanLayers(r.tr, r.clock, r.wall, r.res.Layers)
	}
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// workloadFuncs run one repetition of each workload.
var workloadFuncs = map[string]func(*rep) error{
	"quick":        runQuick,
	"fullrl":       runFullRL,
	"serve-suite":  runServeSuite,
	"serve-metric": runServeMetric,
}

// childMain runs one repetition and prints its result as one JSON line on
// standard output. The parent starts it as "<self> child ..." with the GC
// trace enabled.
func childMain(args []string, sz sizes) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	traced := fs.Bool("trace", false, "record spans and per-layer metrics")
	traceFile := fs.String("tracefile", "", "write the Chrome trace of a traced repetition here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloadFuncs[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "topobench child: unknown workload %q\n", *workload)
		return 2
	}
	r := newRep(*workload, *seed, *traced, sz)
	if err := run(r); err != nil {
		fmt.Fprintf(os.Stderr, "topobench child: %s: %v\n", *workload, err)
		return 1
	}
	r.finish()
	if *traceFile != "" && r.tr != nil {
		if err := writeChromeTrace(r.tr, *traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "topobench child:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(r.res); err != nil {
		fmt.Fprintln(os.Stderr, "topobench child:", err)
		return 1
	}
	return 0
}

func writeChromeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
