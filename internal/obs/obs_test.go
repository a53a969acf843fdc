package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilSafety drives every exported method on nil receivers: the no-op
// default must never panic, and disabled lookups must return nils that are
// themselves no-ops.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Root() != nil {
		t.Fatal("nil tracer returned a span")
	}
	if err := tr.WriteTree(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	var sp *Span
	if c := sp.Start("child"); c != nil {
		t.Fatal("nil span started a real child")
	}
	sp.End()
	sp.SetAttr("k", 1)
	if sp.Name() != "" || sp.Depth() != 0 || sp.Duration() != 0 {
		t.Fatal("nil span reported non-zero state")
	}
	if sp.Children() != nil || sp.Attrs() != nil {
		t.Fatal("nil span reported children or attrs")
	}
	if sh := sp.Shape(); sh.Name != "" || sh.Children != nil {
		t.Fatal("nil span reported a shape")
	}

	var reg *Registry
	c := reg.Counter("x")
	if c != nil {
		t.Fatal("nil registry returned a counter")
	}
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	g := reg.Gauge("x")
	g.Set(5)
	if g.Value() != 0 {
		t.Fatal("nil gauge stored")
	}
	h := reg.Histogram("x")
	h.Observe(time.Second)
	if st := h.Stats(); st.Count != 0 || st.Buckets != nil {
		t.Fatal("nil histogram recorded")
	}
	if snap := reg.Snapshot(); snap.Counters != nil || snap.Gauges != nil || snap.Histograms != nil {
		t.Fatal("nil registry snapshot non-empty")
	}
	if StageTimings(nil) != nil {
		t.Fatal("nil root produced stages")
	}
}

// TestShapeCanonical: sibling order in a Shape is by name, independent of
// creation order — the property that makes span trees comparable across
// worker widths.
func TestShapeCanonical(t *testing.T) {
	mk := func(names []string) Shape {
		tr := NewTracer("root")
		for _, n := range names {
			tr.Root().Start(n).End()
		}
		return tr.Root().Shape()
	}
	a := mk([]string{"x", "y", "z"})
	b := mk([]string{"z", "x", "y"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shapes differ by creation order: %+v vs %+v", a, b)
	}
}

func TestWriteTreeAndChromeTrace(t *testing.T) {
	tr := NewTracer("run")
	st := tr.Root().Start("stage")
	st.SetAttr("width", 3)
	n1 := st.Start("net:A")
	n1.Start("build:A").End()
	n1.End()
	st.End()
	tr.Root().End()

	var tree bytes.Buffer
	if err := tr.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	out := tree.String()
	for _, want := range []string{"run", "stage", "net:A", "build:A", "width=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("tree has %d lines, want 4:\n%s", lines, out)
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 4 {
		t.Fatalf("trace has %d events, want 4", len(decoded.TraceEvents))
	}
	for _, ev := range decoded.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("event %v is not a complete event", ev["name"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Errorf("event %v has no numeric ts", ev["name"])
		}
	}
}

// TestChromeTraceLanes: overlapping siblings must land on distinct tids,
// nested children may share their parent's.
func TestChromeTraceLanes(t *testing.T) {
	tr := NewTracer("run")
	// Start two children and end them out of order so their intervals
	// overlap.
	a := tr.Root().Start("a")
	b := tr.Root().Start("b")
	time.Sleep(time.Millisecond)
	a.End()
	b.End()
	tr.Root().End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	tids := map[string]int{}
	for _, ev := range decoded.TraceEvents {
		tids[ev.Name] = ev.Tid
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("overlapping siblings share tid %d", tids["a"])
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("c") != reg.Counter("c") {
		t.Fatal("same name returned distinct counters")
	}
	reg.Counter("c").Add(2)
	reg.Counter("c").Add(3)
	reg.Gauge("g").Set(7)
	reg.Histogram("h").Observe(2 * time.Millisecond)
	reg.Histogram("h").Observe(4 * time.Millisecond)

	snap := reg.Snapshot()
	if snap.Counters["c"] != 5 {
		t.Errorf("counter = %d, want 5", snap.Counters["c"])
	}
	if snap.Gauges["g"] != 7 {
		t.Errorf("gauge = %d, want 7", snap.Gauges["g"])
	}
	h := snap.Histograms["h"]
	if h.Count != 2 || h.SumNs != (6*time.Millisecond).Nanoseconds() {
		t.Errorf("histogram = %+v", h)
	}
	if h.MinNs != (2*time.Millisecond).Nanoseconds() || h.MaxNs != (4*time.Millisecond).Nanoseconds() {
		t.Errorf("histogram min/max = %+v", h)
	}

	var buf bytes.Buffer
	if err := snap.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter", "gauge", "histogram", "count=2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	tr := NewTracer("run")
	tr.Root().Start("stage one").End()
	tr.Root().Start("stage two").End()
	tr.Root().End()
	reg := NewRegistry()
	reg.Counter("pipeline.network_builds").Add(11)

	path := filepath.Join(t.TempDir(), "run.json")
	m := &Manifest{
		Tool:               "reproduce",
		GoVersion:          "go-test",
		CacheSchemaVersion: 1,
		Seed:               42,
		Workers:            3,
		Stages:             StageTimings(tr.Root()),
		TotalSeconds:       tr.Root().Duration().Seconds(),
		Metrics:            reg.Snapshot(),
	}
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Workers != 3 || got.CacheSchemaVersion != 1 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Stages) != 2 || got.Stages[0].Name != "stage one" {
		t.Errorf("stages = %+v", got.Stages)
	}
	if got.Metrics.Counters["pipeline.network_builds"] != 11 {
		t.Errorf("metrics = %+v", got.Metrics)
	}
}

func TestHistogramBucketsSaturate(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamps to 0
	h.Observe(0)
	h.Observe(100 * time.Hour) // beyond the last bucket
	st := h.Stats()
	if st.Count != 3 || st.MinNs != 0 || st.MaxNs != (100*time.Hour).Nanoseconds() {
		t.Fatalf("stats = %+v", st)
	}
}
