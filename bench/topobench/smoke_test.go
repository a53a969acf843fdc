package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/experiments"
)

// smokeSizes shrink every workload to seconds: the pipeline benchmark's
// configuration for quick, a 0.12-scale measured Internet for fullrl, and
// 20 suite and 100 metric requests.
var smokeSizes = sizes{
	SetupReps: 2,
	Quick: experiments.Config{
		Set: core.PaperSetOptions{Scale: 0.06},
		Suite: core.SuiteOptions{Sources: 4, MaxBallSize: 300, EigenRank: 8,
			LinkSources: 64},
	},
	FullRLScale:   0.12,
	FullRLCentres: 64,
	FullRLNodes:   5747,
	ServeSuite: experiments.Config{
		Set:   core.PaperSetOptions{Scale: 0.06},
		Suite: core.SuiteOptions{Sources: 3, MaxBallSize: 200, EigenRank: 6, SkipHierarchy: true},
	},
	SuiteRequests:  20,
	MetricScale:    0.12,
	MetricRequests: 100,
	Clients:        2,
	CheckKeys:      4,
}

// TestMain turns the test binary into the benchmark's child when the
// parent code under test re-executes it, running the workloads at
// smokeSizes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], smokeSizes))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the metric tables define.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	want := func(defs []metricDef) string {
		b, _ := json.MarshalIndent(defs, "", "  ")
		return string(b)
	}
	if got, exp := want(bj.EndToEnd), want(endToEnd); got != exp {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd; want\n%s", exp)
	}
	if got, exp := want(bj.PerLayer), want(perLayer()); got != exp {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer(); want\n%s", exp)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
}

// TestSmokeAllWorkloads runs every workload once untraced and once traced,
// in child processes, and checks that each emits every metric
// BENCHMARK.json names, with its unit, and fails nothing.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	o := options{workloads: workloadNames, seed: 1, reps: 1, trace: true}
	reps := runSet(o, io.Discard)
	s := summarize(o, reps)
	for _, trace := range []bool{false, true} {
		o.trace = trace
		f := s.final(o)
		if !f.Correct || f.Failed != 0 {
			for _, w := range workloadNames {
				t.Logf("%s problems: %v", w, s.workloads[w].problems)
			}
			t.Fatalf("trace=%v: correct=%v, %d/%d failed", trace, f.Correct, f.Failed, f.Attempted)
		}
		defs := bj.EndToEnd
		if trace {
			defs = bj.PerLayer
		}
		for _, w := range workloadNames {
			for _, d := range defs {
				m, ok := f.Metrics[w+"/"+d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or with unit %q, want %q", w, d.Name, m.Unit, d.Unit)
				}
			}
			if ff := s.workloads[w].layers["fail_frac"]; ff != 0 {
				t.Errorf("%s: fail_frac %v", w, ff)
			}
		}
	}
	for _, w := range workloadNames {
		for _, name := range []string{"wall_s", "setup_s", "cpu_s", "peak_heap_mb"} {
			if v := s.workloads[w].e2e[name].Median; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, name, v)
			}
		}
	}
	suite := s.workloads["serve-suite"].layers
	if suite["serve.suite_runs"] != 12 || suite["serve.dedup_hits"] != 8 {
		t.Errorf("serve-suite: %v suite runs and %v dedup hits, want 12 and 8",
			suite["serve.suite_runs"], suite["serve.dedup_hits"])
	}
	sum := 0.0
	for _, st := range suiteStages {
		sum += s.workloads["quick"].layers["share."+st]
	}
	if !(sum > 0 && sum <= 1) {
		t.Errorf("quick: stage shares sum to %v, want (0, 1]", sum)
	}
}
