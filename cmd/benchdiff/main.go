// Command benchdiff is the repository's bench-regression sentinel: it
// compares fresh `go test -bench` output against the committed BENCH_*.json
// baselines and fails when a kernel got slower or allocates more than the
// tolerance allows.
//
// Usage:
//
//	benchdiff [-baseline 'BENCH_*.json'] [-tolerance 4] [-alloc-tolerance 1.5]
//	          [-alloc-slack 64] [bench-output.txt ...]
//
// The positional arguments are files holding standard `go test -bench`
// output (stdin when none are given). -baseline is a comma-separated list
// of baseline files or globs; each file is a JSON array of objects carrying
// at least "name" and "seconds_per_op", and optionally "allocs_per_op".
//
// Matching is by benchmark name with the trailing -GOMAXPROCS suffix
// stripped, so "BenchmarkKernelCutSize/fresh-8" compares against the
// baseline entry "BenchmarkKernelCutSize/fresh". Fresh benchmarks without a
// baseline entry and baseline entries not exercised by the given output are
// reported but never fail the run — verify.sh's smoke runs a subset of the
// full suite, and new benchmarks land before their baselines do.
//
// The default time tolerance is deliberately loose (4x) because verify.sh
// benches with -benchtime 1x, where a single iteration carries scheduler
// noise; the sentinel exists to catch order-of-magnitude regressions (an
// accidentally quadratic path, a dropped cache), not 10% drift. Alloc
// counts are near-deterministic, so their tolerance is tighter
// (1.5x + 64 allocs of slack).
//
// Exit status: 0 when every compared benchmark is within tolerance, 1 on
// any regression, 2 on usage or parse errors.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	baselines := flag.String("baseline", "BENCH_*.json",
		"comma-separated baseline JSON files or globs")
	tolerance := flag.Float64("tolerance", 4,
		"fail when fresh time exceeds baseline by more than this factor")
	allocTolerance := flag.Float64("alloc-tolerance", 1.5,
		"fail when fresh allocs/op exceed baseline by more than this factor (plus -alloc-slack)")
	allocSlack := flag.Float64("alloc-slack", 64,
		"absolute allocs/op headroom added on top of -alloc-tolerance")
	flag.Parse()

	base, err := loadBaselines(*baselines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := readBenchFiles(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(fresh) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results in input")
		os.Exit(2)
	}

	report := compare(base, fresh, tolerances{
		Time:       *tolerance,
		Allocs:     *allocTolerance,
		AllocSlack: *allocSlack,
	})
	report.write(os.Stdout)
	if len(report.Regressions) > 0 {
		os.Exit(1)
	}
}

// benchResult is one parsed `go test -bench` output line.
type benchResult struct {
	Name    string  // -GOMAXPROCS suffix stripped
	Seconds float64 // per reported op
	Allocs  float64 // allocs/op; -1 when the line carries none
}

// baseline is one committed reference entry.
type baseline struct {
	Seconds float64
	Allocs  float64 // -1 when the entry carries none
}

// tolerances bounds the accepted fresh/baseline ratios.
type tolerances struct {
	Time       float64
	Allocs     float64
	AllocSlack float64
}

// comparison is the verdict for one benchmark present on both sides.
type comparison struct {
	Name          string
	TimeRatio     float64
	AllocRatio    float64 // 0 when either side lacks alloc data
	BaseSeconds   float64
	FreshSeconds  float64
	BaseAllocs    float64
	FreshAllocs   float64
	TimeRegressed bool
	AllocRegessed bool
}

// report aggregates the run's verdicts.
type report struct {
	Compared    []comparison
	Regressions []comparison
	NoBaseline  []string // fresh benchmarks with no committed entry
	NotRun      []string // baseline entries the input did not exercise
}

// loadBaselines reads every file matched by the comma-separated globs into
// one name-keyed map. Missing globs are an error — a sentinel silently
// comparing against nothing would pass forever.
func loadBaselines(globs string) (map[string]baseline, error) {
	var paths []string
	for _, g := range strings.Split(globs, ",") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		m, err := filepath.Glob(g)
		if err != nil {
			return nil, fmt.Errorf("bad -baseline pattern %q: %v", g, err)
		}
		paths = append(paths, m...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no baseline files match %q", globs)
	}
	sort.Strings(paths)
	out := map[string]baseline{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var entries []struct {
			Name         string   `json:"name"`
			SecondsPerOp *float64 `json:"seconds_per_op"`
			AllocsPerOp  *float64 `json:"allocs_per_op"`
		}
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, e := range entries {
			if e.Name == "" || e.SecondsPerOp == nil {
				continue // no timing — nothing to compare
			}
			b := baseline{Seconds: *e.SecondsPerOp, Allocs: -1}
			if e.AllocsPerOp != nil {
				b.Allocs = *e.AllocsPerOp
			}
			out[e.Name] = b
		}
	}
	return out, nil
}

// readBenchFiles parses every named file (stdin when none) and merges the
// results; a benchmark appearing twice keeps its last line.
func readBenchFiles(paths []string) (map[string]benchResult, error) {
	out := map[string]benchResult{}
	if len(paths) == 0 {
		res, err := parseBenchOutput(os.Stdin)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			out[r.Name] = r
		}
		return out, nil
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		res, err := parseBenchOutput(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		for _, r := range res {
			out[r.Name] = r
		}
	}
	return out, nil
}

// parseBenchOutput extracts benchmark lines from `go test -bench` output:
//
//	BenchmarkKernelCutSize/fresh-8   1   1992114 ns/op   296240 B/op   141 allocs/op
//
// Unknown value/unit pairs (custom metrics) are ignored; lines that do not
// start with "Benchmark" (headers, PASS, ok) are skipped.
func parseBenchOutput(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // not a result line (e.g. "BenchmarkX ... --- SKIP")
		}
		res := benchResult{Name: stripProcSuffix(fields[0]), Allocs: -1}
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // trailing non-metric text
			}
			switch fields[i+1] {
			case "ns/op":
				res.Seconds = v / 1e9
				seen = true
			case "allocs/op":
				res.Allocs = v
			}
		}
		if seen {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// stripProcSuffix removes the trailing -GOMAXPROCS decoration go test
// appends to benchmark names ("BenchmarkX/case-8" -> "BenchmarkX/case").
// Only an all-digit suffix after the last dash is stripped, so sub-case
// names containing dashes survive.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// compare matches fresh results against baselines and applies the
// tolerances. Time regressions require the ratio to exceed tol.Time; alloc
// regressions require fresh > base*tol.Allocs + tol.AllocSlack, and only
// fire when both sides report alloc counts.
func compare(base map[string]baseline, fresh map[string]benchResult, tol tolerances) report {
	var rep report
	for name, f := range fresh {
		b, ok := base[name]
		if !ok {
			rep.NoBaseline = append(rep.NoBaseline, name)
			continue
		}
		c := comparison{
			Name:        name,
			BaseSeconds: b.Seconds, FreshSeconds: f.Seconds,
			BaseAllocs: b.Allocs, FreshAllocs: f.Allocs,
		}
		if b.Seconds > 0 {
			c.TimeRatio = f.Seconds / b.Seconds
			c.TimeRegressed = c.TimeRatio > tol.Time
		}
		if b.Allocs >= 0 && f.Allocs >= 0 {
			if b.Allocs > 0 {
				c.AllocRatio = f.Allocs / b.Allocs
			}
			c.AllocRegessed = f.Allocs > b.Allocs*tol.Allocs+tol.AllocSlack
		}
		rep.Compared = append(rep.Compared, c)
		if c.TimeRegressed || c.AllocRegessed {
			rep.Regressions = append(rep.Regressions, c)
		}
	}
	for name := range base {
		if _, ok := fresh[name]; !ok {
			rep.NotRun = append(rep.NotRun, name)
		}
	}
	sort.Slice(rep.Compared, func(i, j int) bool { return rep.Compared[i].Name < rep.Compared[j].Name })
	sort.Slice(rep.Regressions, func(i, j int) bool { return rep.Regressions[i].Name < rep.Regressions[j].Name })
	sort.Strings(rep.NoBaseline)
	sort.Strings(rep.NotRun)
	return rep
}

// write renders the verdicts: one line per compared benchmark, a summary of
// the uncompared sets, and a REGRESSION block naming each failure.
func (rep report) write(w io.Writer) {
	for _, c := range rep.Compared {
		status := "ok        "
		if c.TimeRegressed || c.AllocRegessed {
			status = "REGRESSION"
		}
		line := fmt.Sprintf("%s %-55s time %6.2fx (%.4gs -> %.4gs)",
			status, c.Name, c.TimeRatio, c.BaseSeconds, c.FreshSeconds)
		if c.BaseAllocs >= 0 && c.FreshAllocs >= 0 {
			line += fmt.Sprintf("  allocs %.2fx (%.4g -> %.4g)",
				c.AllocRatio, c.BaseAllocs, c.FreshAllocs)
		}
		fmt.Fprintln(w, line)
	}
	if len(rep.NoBaseline) > 0 {
		fmt.Fprintf(w, "note: %d benchmark(s) have no baseline entry: %s\n",
			len(rep.NoBaseline), strings.Join(rep.NoBaseline, ", "))
	}
	if len(rep.NotRun) > 0 {
		fmt.Fprintf(w, "note: %d baseline entr(ies) not exercised by this input\n", len(rep.NotRun))
	}
	if len(rep.Regressions) > 0 {
		fmt.Fprintf(w, "benchdiff: %d regression(s) beyond tolerance\n", len(rep.Regressions))
	} else {
		fmt.Fprintf(w, "benchdiff: %d benchmark(s) within tolerance\n", len(rep.Compared))
	}
}
