// Policy: demonstrates the BGP policy-routing substrate. Synthesizes an
// Internet AS economy with ground-truth provider/customer/peer
// relationships, collects BGP tables at backbone vantage points, runs Gao's
// relationship-inference algorithm on the collected AS paths, and measures
// valley-free path inflation and a policy-induced ball (Appendix E).
//
//	go run ./examples/policy
package main

import (
	"fmt"
	"math/rand"

	"topocmp/internal/bgp"
	"topocmp/internal/graph"
	"topocmp/internal/internetsim"
	"topocmp/internal/policy"
)

func main() {
	r := rand.New(rand.NewSource(11))
	fmt.Println("synthesizing ground-truth AS-level Internet...")
	as := internetsim.MustGenerateAS(r, internetsim.ASParams{NumAS: 4000})
	fmt.Printf("  %d ASes, %d adjacencies, avg degree %.2f, max degree %d\n",
		as.Graph.NumNodes(), as.Graph.NumEdges(), as.Graph.AvgDegree(), as.Graph.MaxDegree())

	// BGP collection at 20 backbone vantages, like route-views.
	vantages := bgp.PickVantages(as.Graph, 20, r)
	table := bgp.Collect(as.Annotated, vantages)
	measured, _ := table.ExtractGraph()
	fmt.Printf("collected %d AS paths; measured graph: %d ASes, %d of %d adjacencies visible\n",
		len(table.Paths), measured.NumNodes(), measured.NumEdges(), as.Graph.NumEdges())

	// Gao inference against ground truth.
	inferred := policy.InferGao(as.Graph, table.Paths)
	acc := policy.InferenceAccuracy(as.Annotated, inferred)
	fmt.Printf("Gao relationship inference accuracy vs ground truth: %.1f%%\n", 100*acc)

	// Path inflation: valley-free paths vs shortest paths.
	sources := []int32{vantages[0], vantages[5], 100, 2000, 3500}
	infl := as.Annotated.PathInflation(sources)
	fmt.Printf("policy path inflation (mean policy/shortest ratio): %.3f\n", infl)

	// A policy-induced ball around a stub AS (Appendix E).
	center := int32(as.Graph.NumNodes() - 1)
	bfs := graph.NewBFSScratch()
	for h := 1; h <= 4; h++ {
		b := as.Annotated.PolicyBall(center, h)
		plain := bfs.Ball(as.Graph, center, h)
		fmt.Printf("ball around stub AS %d, radius %d: policy %d nodes / %d links, plain %d nodes\n",
			center, h, len(b.Nodes), len(b.Edges), len(plain))
	}
}
