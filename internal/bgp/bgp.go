// Package bgp simulates the measurement process behind the paper's AS
// graph: a route collector (like route-views.oregon-ix.net) peers with
// several backbone ASes and records each peer's best AS path to every
// destination; the AS graph is then re-assembled from adjacent pairs on
// those paths. The result inherits BGP collection's characteristic
// incompleteness — backup links and distant peerings that no collected best
// path crosses are invisible, exactly as in the measured graph the paper
// analyzes.
//
// The package also parses/serializes the table format so real AS-path data
// can be substituted for the simulation.
package bgp

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// Table is a collected set of AS paths (one per (vantage, destination)
// pair, vantage first).
type Table struct {
	Paths [][]int32
}

// Collect gathers best valley-free paths from each vantage AS to every
// reachable destination, as a route collector peering with those ASes
// would. Unreachable destinations are skipped.
func Collect(a *policy.Annotated, vantages []int32) *Table {
	t := &Table{}
	n := a.G.NumNodes()
	var pt *policy.PathTree
	for _, v := range vantages {
		pt = a.PathsInto(pt, v)
		for dst := int32(0); dst < int32(n); dst++ {
			if dst == v {
				continue
			}
			if path := pt.Path(dst); path != nil {
				t.Paths = append(t.Paths, path)
			}
		}
	}
	return t
}

// PickVantages selects k distinct vantage ASes preferring the
// highest-degree ones (route collectors peer with backbone ASes; the
// paper's table peers with more than 20 backbone routers).
func PickVantages(g *graph.Graph, k int, r *rand.Rand) []int32 {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	// Order by degree descending with random jitter among ties: a stable
	// sort keeps the shuffled order within each degree.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(g.Degree(b), g.Degree(a)) })
	return order[:k]
}

// ExtractGraph re-assembles the measured AS graph: nodes are renumbered
// densely over the ASes appearing on any path; edges join path-adjacent
// ASes. It returns the graph and the mapping orig[newID] = AS id.
func (t *Table) ExtractGraph() (*graph.Graph, []int32) {
	// AS ids below the table's hop count index a dense array (a simulated
	// table's ids are below its AS count). A larger or negative id, possible
	// only in a parsed table, goes to a map instead, so the array never
	// outgrows the table.
	hops, maxAS := 0, int32(-1)
	for _, p := range t.Paths {
		hops += len(p)
		for _, as := range p {
			maxAS = max(maxAS, as)
		}
	}
	index := make([]int32, min(int(maxAS)+1, hops))
	for i := range index {
		index[i] = -1
	}
	sparse := map[int32]int32{}
	var orig []int32
	id := func(as int32) int32 {
		if uint32(as) < uint32(len(index)) {
			if index[as] < 0 {
				index[as] = int32(len(orig))
				orig = append(orig, as)
			}
			return index[as]
		}
		i, ok := sparse[as]
		if !ok {
			i = int32(len(orig))
			sparse[as] = i
			orig = append(orig, as)
		}
		return i
	}
	// Path-adjacent pairs stream into the builder as ids are minted; the
	// freeze dedups, so no seen-set or edge list is held alongside the CSR.
	sb := graph.NewStreamBuilder(0)
	for _, p := range t.Paths {
		for i := 0; i+1 < len(p); i++ {
			u, v := id(p[i]), id(p[i+1])
			if u == v {
				continue
			}
			sb.EnsureNodes(len(orig))
			sb.AddEdge(u, v)
		}
	}
	sb.EnsureNodes(len(orig))
	return sb.Graph(), orig
}

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
