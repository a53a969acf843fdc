package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: topocmp/internal/partition
cpu: AMD EPYC
BenchmarkKernelCutSize/fresh-8         	       1	   2100000 ns/op	  296240 B/op	     141 allocs/op
BenchmarkKernelCutSize/workspace-8     	       1	   1900000 ns/op	    5376 B/op	       1 allocs/op
BenchmarkScaleBuild/map-16             	       1	 600000000 ns/op
BenchmarkBrandNew/case-8               	       1	   1000000 ns/op	     100 B/op	      10 allocs/op
BenchmarkKernelCutSize/fresh           	--- SKIP: short mode
PASS
ok  	topocmp/internal/partition	0.123s
`

func TestParseBenchOutput(t *testing.T) {
	res, err := parseBenchOutput(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]benchResult{}
	for _, r := range res {
		got[r.Name] = r
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(got), got)
	}
	fresh := got["BenchmarkKernelCutSize/fresh"]
	if fresh.Seconds != 0.0021 || fresh.Allocs != 141 {
		t.Errorf("fresh = %+v, want 0.0021s / 141 allocs", fresh)
	}
	// No B/op / allocs/op columns: Allocs stays at the -1 sentinel.
	if b := got["BenchmarkScaleBuild/map"]; b.Seconds != 0.6 || b.Allocs != -1 {
		t.Errorf("map = %+v, want 0.6s / -1 allocs", b)
	}
}

func TestStripProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkX-8":            "BenchmarkX",
		"BenchmarkX/case-16":      "BenchmarkX/case",
		"BenchmarkX/words1-rl-4":  "BenchmarkX/words1-rl",
		"BenchmarkX/no-digits-":   "BenchmarkX/no-digits-",
		"BenchmarkX/mixed-8cores": "BenchmarkX/mixed-8cores",
		"BenchmarkPlain":          "BenchmarkPlain",
	} {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestLoadBaselines reads the one timing field, seconds_per_op, with or
// without allocs_per_op, and skips rows without a name or a timing.
func TestLoadBaselines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	data := `[
		{"name": "BenchmarkA", "seconds_per_op": 0.002, "allocs_per_op": 141},
		{"name": "BenchmarkB/sub", "seconds_per_op": 0.5, "peak_heap_bytes": 12345},
		{"name": "BenchmarkNoTiming", "peak_heap_bytes": 12345},
		{"name": "", "seconds_per_op": 1}
	]`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaselines(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 {
		t.Fatalf("loaded %d entries, want 2: %+v", len(base), base)
	}
	if b := base["BenchmarkA"]; b.Seconds != 0.002 || b.Allocs != 141 {
		t.Errorf("BenchmarkA = %+v", b)
	}
	if b := base["BenchmarkB/sub"]; b.Seconds != 0.5 || b.Allocs != -1 {
		t.Errorf("BenchmarkB/sub = %+v", b)
	}
	if _, err := loadBaselines(filepath.Join(dir, "nomatch_*.json")); err == nil {
		t.Error("missing baselines: want error, got nil")
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := map[string]baseline{
		"BenchmarkFast":    {Seconds: 0.001, Allocs: 100},
		"BenchmarkSlow":    {Seconds: 0.001, Allocs: 100},
		"BenchmarkAllocs":  {Seconds: 0.001, Allocs: 100},
		"BenchmarkNoAlloc": {Seconds: 0.5, Allocs: -1},
		"BenchmarkUnrun":   {Seconds: 1, Allocs: -1},
	}
	fresh := map[string]benchResult{
		"BenchmarkFast":    {Name: "BenchmarkFast", Seconds: 0.0012, Allocs: 100},
		"BenchmarkSlow":    {Name: "BenchmarkSlow", Seconds: 0.02, Allocs: 100},    // 20x time
		"BenchmarkAllocs":  {Name: "BenchmarkAllocs", Seconds: 0.001, Allocs: 300}, // 3x allocs
		"BenchmarkNoAlloc": {Name: "BenchmarkNoAlloc", Seconds: 0.6, Allocs: 500},  // no baseline allocs: time only
		"BenchmarkNew":     {Name: "BenchmarkNew", Seconds: 9, Allocs: 9e6},        // no baseline at all
	}
	rep := compare(base, fresh, tolerances{Time: 4, Allocs: 1.5, AllocSlack: 64})

	if len(rep.Compared) != 4 {
		t.Fatalf("compared %d, want 4", len(rep.Compared))
	}
	want := map[string]bool{"BenchmarkSlow": true, "BenchmarkAllocs": true}
	got := map[string]bool{}
	for _, c := range rep.Regressions {
		got[c.Name] = true
	}
	if len(got) != len(want) {
		t.Fatalf("regressions = %v, want %v", got, want)
	}
	for name := range want {
		if !got[name] {
			t.Errorf("missing regression %s", name)
		}
	}
	if len(rep.NoBaseline) != 1 || rep.NoBaseline[0] != "BenchmarkNew" {
		t.Errorf("NoBaseline = %v, want [BenchmarkNew]", rep.NoBaseline)
	}
	if len(rep.NotRun) != 1 || rep.NotRun[0] != "BenchmarkUnrun" {
		t.Errorf("NotRun = %v, want [BenchmarkUnrun]", rep.NotRun)
	}

	var buf bytes.Buffer
	rep.write(&buf)
	out := buf.String()
	if !strings.Contains(out, "REGRESSION BenchmarkSlow") ||
		!strings.Contains(out, "2 regression(s)") {
		t.Errorf("report rendering incomplete:\n%s", out)
	}
}

// TestCompareAgainstCommittedBaselines replays the committed baselines
// against themselves (rendered as bench output) — the sentinel must pass on
// an unchanged tree, whatever the tolerance.
func TestCompareAgainstCommittedBaselines(t *testing.T) {
	base, err := loadBaselines(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("no committed baseline entries")
	}
	// Every committed row carries seconds_per_op, so none is skipped as
	// untimed and left out of the sentinel.
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var named []struct{ Name string }
		if err := json.Unmarshal(data, &named); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rows += len(named)
	}
	if len(base) != rows {
		t.Errorf("loaded %d timed baselines from %d committed rows", len(base), rows)
	}
	fresh := map[string]benchResult{}
	for name, b := range base {
		fresh[name] = benchResult{Name: name, Seconds: b.Seconds, Allocs: b.Allocs}
	}
	rep := compare(base, fresh, tolerances{Time: 1.01, Allocs: 1.01, AllocSlack: 0})
	if len(rep.Regressions) != 0 {
		t.Errorf("self-comparison regressed: %+v", rep.Regressions)
	}
	if len(rep.NoBaseline) != 0 || len(rep.NotRun) != 0 {
		t.Errorf("self-comparison left uncompared entries: %v / %v", rep.NoBaseline, rep.NotRun)
	}
}
