package policy

import (
	"fmt"

	"topocmp/internal/graph"
)

// RouterOverlay couples a router-level graph with its AS overlay: every
// router belongs to one AS, and inter-AS router links inherit the AS-level
// relationship. Router-level policy paths are the shortest router paths
// whose AS-level projection is valley-free — the paper's Appendix E
// methodology for computing RL policy balls.
type RouterOverlay struct {
	RL   *graph.Graph
	ASOf []int32 // ASOf[router] = AS id in the annotated AS graph
	AS   *Annotated
	// rel[i] is the AS relationship router arc i crosses, read once from AS
	// when the overlay is built. Intra-AS arcs carry RelSibling, whose
	// transition keeps the valley-free state, as an intra-AS hop does.
	rel []Relationship
}

// NewRouterOverlay validates and wraps the inputs. It reads the AS
// relationships of the router links once, so annotate the AS graph before
// wrapping it.
func NewRouterOverlay(rl *graph.Graph, asOf []int32, as *Annotated) (*RouterOverlay, error) {
	if len(asOf) != rl.NumNodes() {
		return nil, fmt.Errorf("policy: asOf has %d entries for %d routers", len(asOf), rl.NumNodes())
	}
	maxAS := int32(as.G.NumNodes())
	for r, a := range asOf {
		if a < 0 || a >= maxAS {
			return nil, fmt.Errorf("policy: router %d mapped to invalid AS %d", r, a)
		}
	}
	off, adj := rl.CSR()
	rel := make([]Relationship, len(adj))
	for u := range asOf {
		for i := off[u]; i < off[u+1]; i++ {
			rel[i] = RelSibling
			if asU, asV := asOf[u], asOf[adj[i]]; asU != asV {
				rel[i] = as.Rel(asU, asV)
			}
		}
	}
	return &RouterOverlay{RL: rl, ASOf: asOf, AS: as, rel: rel}, nil
}

// Dist computes router-level policy distances from src: BFS over the
// (router × valley-state) product, where intra-AS hops keep the state and
// inter-AS hops follow the AS relationship transition.
func (o *RouterOverlay) Dist(src int32) []int32 { return productDist(o.RL, o.rel, src) }

// PolicyBall grows the policy-induced router-level ball of radius h.
func (o *RouterOverlay) PolicyBall(src int32, h int) Ball { return productBall(o.RL, o.rel, src, h) }
