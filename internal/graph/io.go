package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in the classic whitespace edge-list format
// used by topology tools: a header line "# nodes N edges M" followed by one
// "u v" pair per line with u < v.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d edges %d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines starting
// with '#' other than the header are ignored, as are blank lines. If no
// header is present the node count is inferred as max id + 1. A node count,
// declared or inferred, must fit the int32 CSR: a header below 0 or above
// math.MaxInt32 is rejected when it is read, before anything is allocated.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := -1
	var edges []Edge
	maxID := -1
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var hn, hm int
			if _, err := fmt.Sscanf(line, "# nodes %d edges %d", &hn, &hm); err == nil {
				if hn < 0 || hn > math.MaxInt32 {
					return nil, fmt.Errorf("graph: line %d: node count %d outside [0, %d]", lineno, hn, math.MaxInt32)
				}
				n = hn
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want \"u v\", got %q", lineno, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineno, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad node id %q: %v", lineno, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineno)
		}
		e := Edge{int32(u), int32(v)}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		maxID = max(maxID, int(e.V))
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if n < 0 {
		if maxID+1 > math.MaxInt32 {
			return nil, fmt.Errorf("graph: node id %d needs more than %d nodes", maxID, math.MaxInt32)
		}
		n = maxID + 1
	}
	if maxID >= n {
		return nil, fmt.Errorf("graph: node id %d exceeds declared node count %d", maxID, n)
	}
	return FromEdges(n, edges), nil
}

// ReadEdgeListFile reads a graph from path via ReadEdgeList.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f)
}
