// Multicast: connects the paper's expansion metric to protocol
// performance, the motivation it cites from Phillips et al. (SIGCOMM 1999).
// Grows shortest-path multicast trees on a high-expansion PLRG and a
// low-expansion Mesh, fits the Chuang–Sirbu scaling exponent
// L(m) ∝ m^k, and reports multicast's efficiency over unicast.
//
//	go run ./examples/multicast
package main

import (
	"fmt"
	"math/rand"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/multicast"
)

func main() {
	r := rand.New(rand.NewSource(17))
	networks := []struct {
		name string
		g    *graph.Graph
	}{
		{"PLRG (high expansion)", plrg.MustGenerate(r, plrg.Params{N: 4000, Beta: 2.2})},
		{"Mesh 50x50 (low expansion)", canonical.Mesh(50, 50)},
	}
	for _, n := range networks {
		curve := multicast.ScalingCurve(n.g, 0, n.g.NumNodes()/4, 8,
			rand.New(rand.NewSource(23)))
		k := multicast.ChuangSirbuExponent(curve)
		apl, _ := metrics.AveragePathLength(n.g, 48)
		eff, err := multicast.Efficiency(curve, apl)
		if err != nil {
			panic(err)
		}
		last := eff.Points[eff.Len()-1]
		fmt.Printf("%s: %d nodes, avg path length %.2f\n", n.name, n.g.NumNodes(), apl)
		fmt.Printf("  Chuang-Sirbu exponent k = %.2f (law predicts ~0.8 on Internet-like graphs)\n", k)
		fmt.Printf("  multicast/unicast link ratio at m=%.0f receivers: %.2f\n\n", last.X, last.Y)
	}
	fmt.Println("The high-expansion graph hews to the ~0.8 exponent; the mesh's")
	fmt.Println("slow neighborhood growth bends the law — the reason the paper's")
	fmt.Println("authors cared about matching the Internet's large-scale structure.")
}
