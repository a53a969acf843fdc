package topocmp

import (
	"encoding/json"
	"errors"
	"flag"
	"io/fs"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"

	"topocmp/internal/graph"
)

// updateBench makes the root benchmarks rewrite their committed
// BENCH_*.json baselines, for example
//
//	go test -run '^$' -bench '^BenchmarkMSBFS$' . -update
//
// Without it a benchmark run leaves the baselines as committed, so a smoke
// run cannot overwrite them with noisy one-iteration numbers.
var updateBench = flag.Bool("update", false, "merge this run's benchmark rows into the committed BENCH_*.json files")

var benchFileMu sync.Mutex

// opCost runs fn b.N times with the timer and the allocation counters
// around the loop alone, and returns the cost of one call. One untimed call
// comes first, so first-call costs (pooled scratch growing to the graph,
// lazily built tables) stay out of the row, and a -benchtime 1x smoke times
// the same warm call the committed rows average over many iterations.
func opCost(b *testing.B, fn func()) (seconds, allocs, bytes float64) {
	b.Helper()
	fn()
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
	return b.Elapsed().Seconds() / n,
		float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n
}

// graphBenchRow is one line of BENCH_msbfs.json, BENCH_kernels2.json or
// BENCH_linkvalue.json, the machine-readable forms of EXPERIMENTS.md's
// distance-kernel, kernel-wave-2 and link-value tables: one kernel timed
// on one graph family.
type graphBenchRow struct {
	Name         string  `json:"name"`
	Graph        string  `json:"graph"`
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	Sources      int     `json:"sources"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// benchOnGraph runs fn b.N times on g with alloc accounting and records
// the row in file.
func benchOnGraph(b *testing.B, file string, g *graph.Graph, gname string, sources int, fn func()) {
	b.Helper()
	row := graphBenchRow{Name: b.Name(), Graph: gname,
		Nodes: g.NumNodes(), Edges: g.NumEdges(), Sources: sources}
	row.SecondsPerOp, row.AllocsPerOp, row.BytesPerOp = opCost(b, fn)
	recordBench(b, file, row)
}

// recordBench merges row into the baseline file under -update. The row
// replaces the file's row with the same "name" or is appended, and every
// other row stays as committed, so a run of one benchmark rewrites only
// that benchmark's rows. The harness re-enters a benchmark while it
// calibrates b.N, so the last (largest-N) row wins; the file is written at
// every call, so a partial run still leaves a consistent file.
func recordBench(b *testing.B, file string, row any) {
	b.Helper()
	if !*updateBench {
		return
	}
	raw, err := json.Marshal(row)
	if err != nil {
		b.Fatal(err)
	}
	name := benchRowName(b, raw)

	benchFileMu.Lock()
	defer benchFileMu.Unlock()
	var rows []json.RawMessage
	data, err := os.ReadFile(file)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &rows); err != nil {
			b.Fatalf("%s: %v", file, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		b.Fatal(err)
	}
	if i := slices.IndexFunc(rows, func(r json.RawMessage) bool { return benchRowName(b, r) == name }); i >= 0 {
		rows[i] = raw
	} else {
		rows = append(rows, raw)
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(file, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchRowName reads a baseline row's "name" field.
func benchRowName(b *testing.B, raw json.RawMessage) string {
	var key struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(raw, &key); err != nil {
		b.Fatal(err)
	}
	return key.Name
}
