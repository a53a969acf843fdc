package bgp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"topocmp/internal/internetsim"
	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

// Write serializes the table, one path per line: space-separated AS ids,
// vantage first (the format ParseTable reads and Gao-style tooling
// consumes).
func (t *Table) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, p := range t.Paths {
		for i, as := range p {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(as))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseTable reads the format produced by Write. Blank lines and lines
// starting with '#' are skipped. AS-path prepending (repeated ids) is
// collapsed, as Gao's algorithm expects.
func ParseTable(rd io.Reader) (*Table, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Table{}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		path := make([]int32, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseInt(f, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bgp: line %d: bad AS id %q: %v", lineno, f, err)
			}
			if len(path) > 0 && path[len(path)-1] == int32(v) {
				continue // collapse prepending
			}
			path = append(path, int32(v))
		}
		if len(path) > 0 {
			t.Paths = append(t.Paths, path)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func testInternet(t *testing.T, n int, seed int64) *internetsim.ASLevel {
	t.Helper()
	return internetsim.MustGenerateAS(rand.New(rand.NewSource(seed)), internetsim.ASParams{NumAS: n})
}

func TestCollectAndExtract(t *testing.T) {
	as := testInternet(t, 1500, 1)
	r := rand.New(rand.NewSource(2))
	vantages := PickVantages(as.Graph, 10, r)
	table := Collect(as.Annotated, vantages)
	if len(table.Paths) < 1000 {
		t.Fatalf("only %d paths collected", len(table.Paths))
	}
	measured, orig := table.ExtractGraph()
	if measured.NumNodes() < as.Graph.NumNodes()*8/10 {
		t.Fatalf("measured graph covers %d of %d ASes", measured.NumNodes(), as.Graph.NumNodes())
	}
	// Collection bias: the measured graph misses some ground-truth edges.
	if measured.NumEdges() >= as.Graph.NumEdges() {
		t.Fatalf("measured edges %d >= truth %d; expected incompleteness",
			measured.NumEdges(), as.Graph.NumEdges())
	}
	if len(orig) != measured.NumNodes() {
		t.Fatal("orig mapping length mismatch")
	}
	if !measured.IsConnected() {
		t.Fatal("path-union graph must be connected")
	}
}

func TestMeasuredGraphKeepsHeavyTail(t *testing.T) {
	as := testInternet(t, 3000, 3)
	vantages := PickVantages(as.Graph, 15, rand.New(rand.NewSource(4)))
	table := Collect(as.Annotated, vantages)
	measured, _ := table.ExtractGraph()
	ccdf := stats.CCDF(measured.Degrees())
	fit := stats.LogLogFit(ccdf.Points)
	if fit.Slope > -0.7 {
		t.Fatalf("measured CCDF slope = %.2f; heavy tail lost", fit.Slope)
	}
}

func TestPickVantagesPrefersBackbone(t *testing.T) {
	as := testInternet(t, 800, 5)
	vs := PickVantages(as.Graph, 5, rand.New(rand.NewSource(6)))
	if len(vs) != 5 {
		t.Fatalf("vantages = %d", len(vs))
	}
	avgAll := as.Graph.AvgDegree()
	for _, v := range vs {
		if float64(as.Graph.Degree(v)) < avgAll {
			t.Fatalf("vantage %d has below-average degree", v)
		}
	}
}

func TestTableRoundTrip(t *testing.T) {
	table := &Table{Paths: [][]int32{{1, 2, 3}, {7, 5}, {9}}}
	var buf bytes.Buffer
	if err := table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != 3 || got.Paths[0][2] != 3 || got.Paths[1][1] != 5 {
		t.Fatalf("round trip = %v", got.Paths)
	}
}

func TestParseTableCollapsesPrepending(t *testing.T) {
	table, err := ParseTable(bytes.NewBufferString("1 2 2 2 3\n# comment\n\n4 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Paths) != 2 {
		t.Fatalf("paths = %v", table.Paths)
	}
	if len(table.Paths[0]) != 3 {
		t.Fatalf("prepending not collapsed: %v", table.Paths[0])
	}
	if len(table.Paths[1]) != 1 {
		t.Fatalf("second path = %v", table.Paths[1])
	}
}

func TestParseTableErrors(t *testing.T) {
	if _, err := ParseTable(bytes.NewBufferString("1 x 3\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestGaoOnCollectedTable(t *testing.T) {
	// End-to-end: ground truth -> BGP collection -> Gao inference.
	// Accuracy should be substantially better than chance.
	as := testInternet(t, 1200, 7)
	vantages := PickVantages(as.Graph, 12, rand.New(rand.NewSource(8)))
	table := Collect(as.Annotated, vantages)
	inferred := policy.InferGao(as.Graph, table.Paths)
	acc := policy.InferenceAccuracy(as.Annotated, inferred)
	if acc < 0.6 {
		t.Fatalf("Gao accuracy on simulated Internet = %.2f, want > 0.6", acc)
	}
}
