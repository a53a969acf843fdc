package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"topocmp/internal/core"
	"topocmp/internal/experiments"
	"topocmp/internal/obs"
)

// tinyConfig is the smallest configuration that still exercises every
// pipeline stage; the end-to-end tests share it to bound their runtime.
func tinyConfig() experiments.Config {
	return experiments.Config{
		Set: core.PaperSetOptions{Seed: 1, Scale: 0.06},
		Suite: core.SuiteOptions{Sources: 3, MaxBallSize: 200, EigenRank: 6,
			LinkSources: 32, Seed: 1},
	}
}

// readTree loads every rendered artifact under dir, keyed by relative path.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no output files under %s", dir)
	}
	return files
}

func sameTree(t *testing.T, label string, a, b map[string][]byte) {
	t.Helper()
	for path, data := range a {
		other, ok := b[path]
		if !ok {
			t.Errorf("%s: %s missing from second run", label, path)
			continue
		}
		if !bytes.Equal(data, other) {
			t.Errorf("%s: %s differs", label, path)
		}
	}
	for path := range b {
		if _, ok := a[path]; !ok {
			t.Errorf("%s: %s only in second run", label, path)
		}
	}
}

// TestReproduceDeterminism is the end-to-end acceptance check: the full
// artifact set must be byte-identical between -j 1 and -j N, and a warm
// cache rerun must reproduce it byte-identically with zero network builds
// and zero suite runs.
func TestReproduceDeterminism(t *testing.T) {
	cfg := tinyConfig()
	base := t.TempDir()
	cacheDir := filepath.Join(base, "cache")

	seqCfg := cfg
	seqCfg.Suite.Parallelism = 1
	seqOut := filepath.Join(base, "seq")
	if _, _, err := run(seqCfg, 1, "", seqOut, obsOptions{}); err != nil {
		t.Fatal(err)
	}

	parCfg := cfg
	parCfg.Suite.Parallelism = 3
	coldOut := filepath.Join(base, "cold")
	cold, _, err := run(parCfg, 3, cacheDir, coldOut, obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.NetworkBuilds == 0 || st.SuiteRuns == 0 {
		t.Fatalf("cold run did no work: %d builds / %d suite runs",
			st.NetworkBuilds, st.SuiteRuns)
	}

	warmOut := filepath.Join(base, "warm")
	warm, _, err := run(parCfg, 3, cacheDir, warmOut, obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.NetworkBuilds != 0 || st.SuiteRuns != 0 {
		t.Fatalf("warm rerun recomputed: %d builds / %d suite runs",
			st.NetworkBuilds, st.SuiteRuns)
	}

	seq := readTree(t, seqOut)
	coldTree := readTree(t, coldOut)
	warmTree := readTree(t, warmOut)
	sameTree(t, "-j 3 vs -j 1", seq, coldTree)
	sameTree(t, "warm cache vs cold", coldTree, warmTree)
}

// TestObsDisabledByteIdentical checks the observability layer's core
// contract: turning on -trace/-metrics never changes the artifacts. A plain
// run and an instrumented run must render byte-identical output directories
// (the manifest aside, which only exists when instrumented), and the
// manifest's counters must reconcile with the pipeline's actual behavior —
// in particular a warm-cache rerun records zero builds, zero suite runs and
// an all-hit cache.
func TestObsDisabledByteIdentical(t *testing.T) {
	cfg := tinyConfig()
	cfg.Suite.Parallelism = 2
	base := t.TempDir()
	cacheDir := filepath.Join(base, "cache")

	plainOut := filepath.Join(base, "plain")
	if _, _, err := run(cfg, 2, "", plainOut, obsOptions{}); err != nil {
		t.Fatal(err)
	}

	coldOut := filepath.Join(base, "cold")
	_, tr, err := run(cfg, 2, cacheDir, coldOut, obsOptions{Trace: true, Metrics: true, Sample: true})
	if err != nil {
		t.Fatal(err)
	}

	plain := readTree(t, plainOut)
	cold := readTree(t, coldOut)
	if _, ok := cold["run.json"]; !ok {
		t.Error("instrumented run did not write run.json")
	}
	tsData, ok := cold["run_timeseries.json"]
	if !ok {
		t.Error("sampling run did not write run_timeseries.json")
	}
	var ts obs.TimeSeries
	if err := json.Unmarshal(tsData, &ts); err != nil {
		t.Fatalf("run_timeseries.json is not valid JSON: %v", err)
	}
	if len(ts.Samples) == 0 {
		t.Error("run_timeseries.json holds no samples")
	}
	last := ts.Samples[len(ts.Samples)-1]
	if last.HeapBytes == 0 || last.Counters["pipeline.suite_runs"] == 0 {
		t.Errorf("final sample incomplete: %+v", last)
	}
	delete(cold, "run.json")
	delete(cold, "run_timeseries.json")
	sameTree(t, "obs on vs off", plain, cold)

	// The Chrome export of the instrumented run must be valid trace-event
	// JSON covering the pipeline's spans.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"reproduce", "Pipeline: networks and suites", "net:AS", "build:AS", "suite:AS"} {
		if !names[want] {
			t.Errorf("chrome trace missing span %q", want)
		}
	}

	// Cold manifest: real work happened and was recorded.
	coldMan := readManifest(t, filepath.Join(coldOut, "run.json"))
	if coldMan.Metrics.Counters["pipeline.network_builds"] == 0 ||
		coldMan.Metrics.Counters["pipeline.suite_runs"] == 0 {
		t.Errorf("cold manifest recorded no work: %+v", coldMan.Metrics.Counters)
	}
	if len(coldMan.Stages) == 0 {
		t.Error("cold manifest has no stage timings")
	}

	// Warm rerun: the manifest must record a zero-compute, all-hit run.
	warmOut := filepath.Join(base, "warm")
	if _, _, err := run(cfg, 2, cacheDir, warmOut, obsOptions{Metrics: true, Sample: true}); err != nil {
		t.Fatal(err)
	}
	warm := readTree(t, warmOut)
	delete(warm, "run.json")
	delete(warm, "run_timeseries.json")
	sameTree(t, "warm obs vs plain", plain, warm)
	man := readManifest(t, filepath.Join(warmOut, "run.json"))
	c := man.Metrics.Counters
	for _, name := range []string{"pipeline.network_builds", "pipeline.suite_runs",
		"cache.misses", "cache.puts", "cache.decode_errors"} {
		if c[name] != 0 {
			t.Errorf("warm manifest: %s = %d, want 0", name, c[name])
		}
	}
	if c["cache.hits"] == 0 {
		t.Error("warm manifest: cache.hits = 0, want > 0")
	}
	if man.CacheSchemaVersion == 0 || man.GoVersion == "" || man.Tool != "reproduce" {
		t.Errorf("manifest identity fields incomplete: %+v", man)
	}
}

// TestParseScale pins the -scale argument contract: presets resolve to
// their multipliers, positive finite numbers pass through, and everything
// else — zero, negatives, NaN/Inf, absurd magnitudes, unknown words — is
// rejected with a clear error instead of launching a doomed build.
func TestParseScale(t *testing.T) {
	for arg, want := range core.ScalePresets {
		got, err := parseScale(arg)
		if err != nil || got != want {
			t.Errorf("parseScale(%q) = %v, %v; want %v, nil", arg, got, err, want)
		}
	}
	for _, tc := range []struct {
		arg  string
		want float64
	}{{"0.25", 0.25}, {"1", 1}, {"3.81", 3.81}, {"100", 100}, {"1000", 1000}} {
		got, err := parseScale(tc.arg)
		if err != nil || got != tc.want {
			t.Errorf("parseScale(%q) = %v, %v; want %v, nil", tc.arg, got, err, tc.want)
		}
	}
	for _, arg := range []string{
		"0", "-1", "-0.5", "NaN", "+Inf", "-Inf", "1001", "1e9",
		"", "huge", "1m?", "0x10", "25%",
	} {
		if got, err := parseScale(arg); err == nil {
			t.Errorf("parseScale(%q) = %v, want error", arg, got)
		}
	}
}

// TestCheckWorkers checks that a negative -j ends in an error before any
// work starts, never in a silent all-cores run, and that zero and positive
// widths pass.
func TestCheckWorkers(t *testing.T) {
	cases := []struct {
		workers int
		ok      bool
	}{
		{0, true},
		{1, true},
		{64, true},
		{-1, false},
		{-3, false},
	}
	for _, c := range cases {
		if err := checkWorkers(c.workers); (err == nil) != c.ok {
			t.Errorf("-j %d: error %v, want ok=%v", c.workers, err, c.ok)
		}
	}
}

func TestStageSlug(t *testing.T) {
	for in, want := range map[string]string{
		"Pipeline: networks and suites":             "pipeline_networks_and_suites",
		"Figure 2: expansion/resilience/distortion": "figure_2_expansion_resilience_distortion",
		"Figure 2 (degree-based variants, j-l)":     "figure_2_degree_based_variants_j_l",
		"Summary vs. paper":                         "summary_vs_paper",
	} {
		if got := stageSlug(in); got != want {
			t.Errorf("stageSlug(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSpanTreeDeterministicShape checks the trace determinism contract: the
// same configuration yields the same span names and hierarchy whatever the
// worker budget — only the timings may differ.
func TestSpanTreeDeterministicShape(t *testing.T) {
	base := t.TempDir()

	seqCfg := tinyConfig()
	seqCfg.Suite.Parallelism = 1
	_, seqTr, err := run(seqCfg, 1, "", filepath.Join(base, "seq"), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}

	parCfg := tinyConfig()
	parCfg.Suite.Parallelism = 3
	_, parTr, err := run(parCfg, 3, "", filepath.Join(base, "par"), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}

	seqShape := seqTr.Root().Shape()
	parShape := parTr.Root().Shape()
	if !reflect.DeepEqual(seqShape, parShape) {
		t.Errorf("span tree shape differs between -j 1 and -j 3:\n%+v\nvs\n%+v", seqShape, parShape)
	}
	if len(seqShape.Children) == 0 {
		t.Fatal("root span has no stage children")
	}
}

// readManifest decodes the run.json a run with -metrics wrote.
func readManifest(t *testing.T, path string) *obs.Manifest {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return &m
}
