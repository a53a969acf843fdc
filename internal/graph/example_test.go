package graph_test

import (
	"fmt"

	"topocmp/internal/graph"
)

func ExampleStreamBuilder() {
	b := graph.NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 3) // a repeat in the other orientation is dropped
	g := b.Graph()
	fmt.Println(g.NumNodes(), g.NumEdges(), g.AvgDegree())
	// Output: 4 4 2
}

func ExampleGraph_BFS() {
	b := graph.NewStreamBuilder(5)
	for i := int32(0); i < 4; i++ {
		b.AddEdge(i, i+1)
	}
	dist, _ := b.Graph().BFS(0)
	fmt.Println(dist)
	// Output: [0 1 2 3 4]
}

func ExampleGraph_Core() {
	// A triangle with a two-hop tail: the core strips the tail.
	b := graph.NewStreamBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(0, 3)
	b.AddEdge(3, 4)
	core, orig := b.Graph().Core()
	fmt.Println(core.NumNodes(), orig)
	// Output: 3 [0 1 2]
}
