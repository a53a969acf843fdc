// Command topobench is topocmp's end-to-end benchmark. It runs four
// workloads — a cold reproduce -quick, the measured Internet at the full-RL
// preset, and suite and metric traffic against the topocmpd serving layer —
// and reports end-to-end metrics (with tracing off) and per-layer metrics
// (from a traced repetition).
//
// Usage:
//
//	topobench [-workload W[,W...]] [-seed N] [-reps N | -seconds S]
//	          [-trace 0|1] [-tracedir DIR] [-out FILE]
//	topobench compare A.json B.json
//
// Every repetition runs in a fresh child process re-executed from this
// binary with the runtime's GC trace on; before each one the parent times a
// fixed calibration loop (host_calib_s) so host drift shows. Repetitions
// interleave round-robin across workloads. -reps fixes their number per
// workload; otherwise they repeat until -seconds per workload have passed
// (at least one each). -trace 1 or -tracedir adds one traced repetition per
// workload; -trace 1 reports its per-layer metrics, -tracedir writes them
// (layers-<workload>.json) and its Chrome trace (trace-<workload>.json).
// -out appends every repetition to a set file that compare reads.
//
// The printout gives every metric with its unit, median, quartiles and
// sample count per workload, and the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}, with metric
// names prefixed by "<workload>/" when more than one workload ran.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:], benchSizes))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// options are the parent's settings.
type options struct {
	workloads []string
	seed      int64
	reps      int
	seconds   float64
	trace     bool
	traceDir  string
	out       string
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	workloads := fs.String("workload", strings.Join(workloadNames, ","), "comma-separated workloads: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	reps := fs.Int("reps", 0, "untraced repetitions per workload (0: repeat until -seconds pass)")
	seconds := fs.Float64("seconds", 0, "time budget per workload when -reps is 0")
	trace := fs.Int("trace", 0, "1: add a traced repetition per workload and report per-layer metrics")
	traceDir := fs.String("tracedir", "", "add a traced repetition per workload and write its layers and Chrome trace here")
	out := fs.String("out", "", "append every repetition to this set file (read by compare)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	o := options{seed: *seed, reps: *reps, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, out: *out}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if o.reps < 0 || o.seconds < 0 || math.IsNaN(o.seconds) {
		return o, errors.New("-reps and -seconds must not be negative")
	}
	for _, w := range strings.Split(*workloads, ",") {
		if !slices.Contains(workloadNames, w) {
			return o, fmt.Errorf("unknown workload %q (want %s)", w, strings.Join(workloadNames, ", "))
		}
		if slices.Contains(o.workloads, w) {
			return o, fmt.Errorf("workload %q named twice", w)
		}
		o.workloads = append(o.workloads, w)
	}
	return o, nil
}

func runMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		return 2
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "topobench:", err)
			return 1
		}
	}
	reps := runSet(o, os.Stderr)
	if o.out != "" {
		if err := appendSet(o.out, reps); err != nil {
			fmt.Fprintln(os.Stderr, "topobench:", err)
			return 1
		}
	}
	res := summarize(o, reps)
	if o.traceDir != "" {
		for _, w := range o.workloads {
			path := filepath.Join(o.traceDir, "layers-"+w+".json")
			if err := writeJSON(path, res.workloads[w].layerFile()); err != nil {
				fmt.Fprintln(os.Stderr, "topobench:", err)
				return 1
			}
		}
	}
	res.print(stdout)
	line, err := json.Marshal(res.final(o))
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.anyMetrics() {
		return 1
	}
	return 0
}

// runSet runs the repetitions: untraced ones round-robin across workloads,
// then the traced ones. Progress goes to log.
func runSet(o options, log io.Writer) []*repResult {
	var reps []*repResult
	start := time.Now()
	budget := time.Duration(o.seconds * float64(len(o.workloads)) * float64(time.Second))
	for round := 0; ; round++ {
		if o.reps > 0 && round == o.reps {
			break
		}
		if o.reps == 0 && round > 0 && time.Since(start) >= budget {
			break
		}
		for _, w := range o.workloads {
			reps = append(reps, runRep(w, o.seed, false, "", log))
		}
	}
	if o.trace || o.traceDir != "" {
		for _, w := range o.workloads {
			file := ""
			if o.traceDir != "" {
				file = filepath.Join(o.traceDir, "trace-"+w+".json")
			}
			reps = append(reps, runRep(w, o.seed, true, file, log))
		}
	}
	return reps
}

// childTimeout bounds one repetition; a child that runs past it is killed
// and counted as failed.
const childTimeout = 150 * time.Second

// runRep calibrates the host, runs one repetition in a child process and
// adds what the parent measures from outside: peak heap from the child's GC
// trace, peak RSS, the calibration time, and the share of the machine's CPU
// time the hypervisor stole while the child ran. A child that fails yields
// a failed, incorrect result.
func runRep(workload string, seed int64, traced bool, traceFile string, log io.Writer) *repResult {
	calib := calibrate()
	steal0, total0 := cpuTicks()
	res, err := runChild(workload, seed, traced, traceFile, log)
	steal1, total1 := cpuTicks()
	if err != nil {
		fmt.Fprintf(log, "topobench: %s: %v\n", workload, err)
		res = &repResult{Workload: workload, Seed: seed, Traced: traced, Start: time.Now(),
			Attempted: 1, Failed: 1, Problems: []string{err.Error()}, Metrics: map[string]float64{}}
	}
	res.Metrics["host_calib_s"] = calib
	if total1 > total0 {
		res.Metrics["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	status := "ok"
	if !res.Correct {
		status = fmt.Sprintf("FAILED %d/%d %v", res.Failed, res.Attempted, res.Problems)
	}
	fmt.Fprintf(log, "topobench: %-12s seed %d traced=%-5t wall %.3fs setup %.3fs calib %.3fs %s\n",
		workload, seed, traced, res.Metrics["wall_s"], res.Metrics["setup_s"], calib, status)
	return res
}

func runChild(workload string, seed int64, traced bool, traceFile string, log io.Writer) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "child", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-trace="+strconv.FormatBool(traced), "-tracefile", traceFile)
	godebug := "gctrace=1"
	if v := os.Getenv("GODEBUG"); v != "" {
		godebug = v + "," + godebug
	}
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start child: %w", err)
	}
	gc, perr := parseGCTrace(stderr, log) // reads to EOF, so it precedes Wait
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	if perr != nil {
		return nil, fmt.Errorf("read child GC trace: %w", perr)
	}
	out := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		out = out[i+1:]
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if gc.Cycles == 0 {
		return nil, errors.New("child printed no GC trace")
	}
	res.Metrics["peak_heap_mb"] = gc.PeakMB
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// calibSink keeps the calibration loop's result observable.
var calibSink byte

// calibrate times a fixed loop that depends on no repository code: sorting
// pseudo-random 64-bit keys and hashing them with SHA-256, about half a
// second on a 2-core x86-64 container. Its time moves with the host, not
// with the code under test.
func calibrate() float64 {
	const n = 1 << 19
	keys := make([]uint64, n)
	buf := make([]byte, 8*n)
	x := uint64(0x9E3779B97F4A7C15)
	t0 := time.Now()
	for range 8 {
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
		}
		slices.Sort(keys)
		for i, k := range keys {
			binary.LittleEndian.PutUint64(buf[8*i:], k)
		}
		sum := sha256.Sum256(buf)
		calibSink ^= sum[0]
	}
	return time.Since(t0).Seconds()
}

// cpuTicks returns the machine's stolen and total CPU ticks from the first
// line of /proc/stat (user nice system idle iowait irq softirq steal ...),
// or zeros where there is no such file. Steal is time the hypervisor ran
// other guests while this one had work: it delays wakeups, which the
// millisecond-scale serve latencies feel most.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
