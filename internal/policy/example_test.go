package policy_test

import (
	"fmt"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// A customer multihomed to two providers cannot be used as transit between
// them: the valley-free distance between the providers stays 2 only if they
// peer or share an upstream; through the customer it is forbidden.
func Example_valleyFree() {
	b := graph.NewStreamBuilder(3)
	b.AddEdge(0, 2) // provider 0 - customer 2
	b.AddEdge(1, 2) // provider 1 - customer 2
	a := policy.NewAnnotated(b.Graph())
	a.SetProviderCustomer(0, 2)
	a.SetProviderCustomer(1, 2)

	dist := a.Dist(0)
	fmt.Println("0 -> 2:", dist[2])
	fmt.Println("0 -> 1 reachable:", dist[1] != graph.Unreached)
	// Output:
	// 0 -> 2: 1
	// 0 -> 1 reachable: false
}

func ExampleInferGao() {
	// A provider (0) with two customers (1, 2); paths collected at the
	// customers reveal the relationships.
	b := graph.NewStreamBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Graph()
	inferred := policy.InferGao(g, [][]int32{{1, 0}, {2, 0}, {1, 0, 2}})
	fmt.Println(inferred.Rel(0, 1), inferred.Rel(1, 0))
	// Output: customer provider
}
