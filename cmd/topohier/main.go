// Command topohier computes the paper's hierarchy measure — link values and
// their rank distribution (§5) — on a graph read from an edge-list file,
// prints the strict/moderate/loose classification, the correlation with
// endpoint degree (Figure 5), and the highest-value "backbone" links.
//
// Usage:
//
//	topogen -type plrg -n 2000 -o g.edges
//	topohier -sources 512 g.edges
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"topocmp/internal/graph"
	"topocmp/internal/hierarchy"
	"topocmp/internal/plot"
	"topocmp/internal/stats"
)

func main() {
	var (
		sources = flag.Int("sources", 448, "pair-universe sample size (0 = all nodes)")
		seed    = flag.Int64("seed", 1, "RNG seed")
		useCore = flag.Bool("core", false, "reduce to the graph core (recursive degree-1 removal) first, as the paper does for the RL graph")
		top     = flag.Int("top", 10, "how many backbone links to list")
		datDir  = flag.String("dat", "", "write the rank distribution as a .dat file into this directory")
	)
	flag.Parse()

	if err := checkSizes(*sources, *top); err != nil {
		fmt.Fprintln(os.Stderr, "topohier:", err)
		os.Exit(1)
	}
	g, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "topohier:", err)
		os.Exit(1)
	}
	if *useCore {
		var orig []int32
		g, orig = g.Core()
		fmt.Printf("core reduction: %d nodes remain\n", len(orig))
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	res := hierarchy.LinkValues(g, hierarchy.Options{
		MaxSources: *sources,
		Rand:       rand.New(rand.NewSource(*seed)),
	})
	fmt.Printf("hierarchy class: %s\n", hierarchy.Classify(res))
	fmt.Printf("link value / min-degree correlation: %.3f\n", res.DegreeCorrelation(g))

	type lv struct {
		e graph.Edge
		v float64
	}
	ranked := make([]lv, len(res.Edges))
	norm := res.Normalized()
	for i := range ranked {
		ranked[i] = lv{res.Edges[i], norm[i]}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].v > ranked[j].v })
	n := *top
	if n > len(ranked) {
		n = len(ranked)
	}
	fmt.Printf("top %d backbone links (normalized value, endpoint degrees):\n", n)
	for _, r := range ranked[:n] {
		fmt.Printf("  (%d,%d)\t%.4f\tdeg %d/%d\n",
			r.e.U, r.e.V, r.v, g.Degree(r.e.U), g.Degree(r.e.V))
	}

	dist := res.RankDistribution()
	plot.ASCII(os.Stdout, []stats.Series{dist}, plot.Options{
		Title: "link value rank distribution", XScale: plot.Log, Height: 10,
	})
	if *datDir != "" {
		if _, err := plot.WriteDat(*datDir, "linkvalues", []stats.Series{dist}); err != nil {
			fmt.Fprintln(os.Stderr, "topohier:", err)
			os.Exit(1)
		}
	}
}

// checkSizes rejects a negative -sources or -top: a negative pair-universe
// size would otherwise sweep every pair, and a negative link count would
// slice out of range.
func checkSizes(sources, top int) error {
	if sources < 0 {
		return fmt.Errorf("-sources must be >= 0 (0 = all nodes), got %d", sources)
	}
	if top < 0 {
		return fmt.Errorf("-top must be >= 0, got %d", top)
	}
	return nil
}

func load(path string) (*graph.Graph, error) {
	if path == "" || path == "-" {
		return graph.ReadEdgeList(os.Stdin)
	}
	return graph.ReadEdgeListFile(path)
}
