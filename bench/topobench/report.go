package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// agg summarizes one metric over repetitions.
type agg struct {
	Median, Q1, Q3 float64
	N              int
}

func aggregate(xs []float64) agg {
	q1, q3 := quartiles(xs)
	return agg{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// workloadSummary is one workload's outcome in a set.
type workloadSummary struct {
	name      string
	seed      int64
	reps      int // untraced repetitions
	ops       float64
	correct   bool
	attempted int
	failed    int
	problems  []string
	e2e       map[string]agg
	layers    map[string]float64 // nil without a traced repetition
}

type summary struct {
	order     []string
	workloads map[string]*workloadSummary
}

// summarize folds the repetitions per workload. A workload is correct when
// every repetition is and all of them hashed their outputs alike.
func summarize(o options, reps []*repResult) *summary {
	s := &summary{order: o.workloads, workloads: map[string]*workloadSummary{}}
	for _, w := range o.workloads {
		ws := &workloadSummary{name: w, seed: o.seed, correct: true, e2e: map[string]agg{}}
		s.workloads[w] = ws
		var untraced []*repResult
		var traced *repResult
		digests := map[string]bool{}
		for _, r := range reps {
			if r.Workload != w {
				continue
			}
			ws.attempted += r.Attempted
			ws.failed += r.Failed
			ws.correct = ws.correct && r.Correct
			ws.problems = append(ws.problems, r.Problems...)
			if r.Digest != "" {
				digests[r.Digest] = true
			}
			_, measured := r.Metrics["wall_s"] // false when the child failed
			switch {
			case r.Traced && measured:
				traced = r
			case !r.Traced:
				ws.reps++
				if measured {
					untraced = append(untraced, r)
				}
			}
		}
		if len(digests) > 1 {
			ws.correct = false
			ws.attempted++
			ws.failed++
			ws.problems = append(ws.problems, fmt.Sprintf("repetitions disagree on the output digest (%d distinct)", len(digests)))
		}
		for _, m := range slices.Concat(endToEnd, ungated) {
			var xs []float64
			for _, r := range untraced {
				if m.Name == "setup_s" {
					xs = append(xs, r.SetupS...)
				} else if v, ok := r.Metrics[m.Name]; ok {
					xs = append(xs, v)
				}
			}
			if len(xs) > 0 {
				ws.e2e[m.Name] = aggregate(xs)
			}
		}
		for _, r := range untraced {
			ws.ops = r.Metrics["ops"]
		}
		if traced != nil {
			ws.layers = map[string]float64{}
			for _, m := range perLayer() {
				ws.layers[m.Name] = traced.Layers[m.Name]
			}
			for _, name := range []string{"peak_rss_mb", "host_calib_s", "host_steal_frac"} {
				ws.layers[name] = traced.Metrics[name]
			}
			if base, ok := ws.e2e["wall_s"]; ok && base.Median > 0 {
				ws.layers["obs.trace_overhead_frac"] = traced.Metrics["wall_s"]/base.Median - 1
			}
			if ws.attempted > 0 {
				ws.layers["fail_frac"] = float64(ws.failed) / float64(ws.attempted)
			}
		}
	}
	return s
}

func (s *summary) anyMetrics() bool {
	for _, ws := range s.workloads {
		if len(ws.e2e) > 0 || ws.layers != nil {
			return true
		}
	}
	return false
}

// metricValue is one entry of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// final builds the last output line: end-to-end medians, or with -trace 1
// the traced repetition's per-layer metrics. A metric that could not be
// measured is left out, and the run is then not correct.
func (s *summary) final(o options) finalLine {
	f := finalLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range s.order {
		ws := s.workloads[w]
		f.Correct = f.Correct && ws.correct
		f.Attempted += ws.attempted
		f.Failed += ws.failed
		prefix := ""
		if len(s.order) > 1 {
			prefix = w + "/"
		}
		put := func(m metricDef, v float64, ok bool) {
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				f.Correct = false
				return
			}
			f.Metrics[prefix+m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		if o.trace {
			for _, m := range perLayer() {
				v, ok := ws.layers[m.Name]
				put(m, v, ok)
			}
			continue
		}
		for _, m := range endToEnd {
			a, ok := ws.e2e[m.Name]
			put(m, a.Median, ok)
		}
	}
	if f.Attempted == 0 {
		f.Attempted, f.Failed, f.Correct = 1, 1, false
	}
	return f
}

// layerFile is what -tracedir writes per workload.
func (ws *workloadSummary) layerFile() any {
	m := map[string]metricValue{}
	for _, d := range perLayer() {
		if v, ok := ws.layers[d.Name]; ok {
			m[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Correct  bool                   `json:"correct"`
		Metrics  map[string]metricValue `json:"metrics"`
	}{ws.name, ws.seed, ws.correct && ws.layers != nil, m}
}

// print writes the human report: per workload, every end-to-end metric with
// its unit, median, quartiles and sample count, then the traced
// repetition's per-layer metrics.
func (s *summary) print(w io.Writer) {
	for _, name := range s.order {
		ws := s.workloads[name]
		state := "correct"
		if !ws.correct {
			state = "NOT CORRECT"
		}
		fmt.Fprintf(w, "== %s (seed %d): %d repetitions, %s, %d/%d checks failed ==\n",
			name, ws.seed, ws.reps, state, ws.failed, ws.attempted)
		for _, p := range ws.problems {
			fmt.Fprintf(w, "   problem: %s\n", p)
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tn\tbound")
		for _, m := range slices.Concat(endToEnd, ungated) {
			a, ok := ws.e2e[m.Name]
			if !ok {
				continue
			}
			bound := "none"
			if m.Bound > 0 {
				bound = fmt.Sprint(m.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n", m.Name, m.Unit, a.Median, a.Q1, a.Q3, a.N, bound)
		}
		tw.Flush() //nolint:errcheck // report rendering is best-effort
		ops := int(ws.ops)
		if q := highestPercentile(ops); q >= 0.9 {
			fmt.Fprintf(w, "   %d operations per repetition; the highest percentile with %d samples beyond is p%g\n",
				ops, minBeyond, q*100)
		} else {
			fmt.Fprintf(w, "   %d operation(s) per repetition: p90_ms has fewer than %d samples beyond it\n", ops, minBeyond)
		}
		if ws.layers == nil {
			continue
		}
		fmt.Fprintln(w, "   per-layer (traced repetition):")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, m := range perLayer() {
			fmt.Fprintf(tw, "   %s\t%s\t%.6g\n", m.Name, m.Unit, ws.layers[m.Name])
		}
		tw.Flush() //nolint:errcheck // report rendering is best-effort
	}
}

// setFile is a set of repetitions on disk, the input of compare.
type setFile struct {
	Reps []*repResult `json:"reps"`
}

func loadSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// appendSet adds the repetitions to the set file at path, creating it when
// absent, and replaces the file atomically.
func appendSet(path string, reps []*repResult) error {
	s := &setFile{}
	if _, err := os.Stat(path); err == nil {
		if s, err = loadSet(path); err != nil {
			return err
		}
	}
	s.Reps = append(s.Reps, reps...)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".topobench-set-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", " ")
	if err := enc.Encode(s); err != nil {
		tmp.Close()
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
