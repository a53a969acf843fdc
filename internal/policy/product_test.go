package policy

import (
	"slices"
	"testing"

	"topocmp/internal/graph"
)

// The product-space traversals below are the ones PathTree replaced: a
// distance BFS (productBFS, productDist), the ball grown from its own BFS
// (productBall) and the counting BFS (ProductCountsInto). They survive as
// the references FuzzPathTreeMatchesReference checks the tree against.

// productDist is Dist over a graph whose arc i crosses relationship rel[i]:
// each node's least distance over its product states.
func productDist(g *graph.Graph, rel []Relationship, src int32) []int32 {
	pd, _ := productBFS(g, rel, src)
	n := g.NumNodes()
	out := make([]int32, n)
	for v := 0; v < n; v++ {
		best := graph.Unreached
		for s := 0; s < numStates; s++ {
			if d := pd[v*numStates+s]; d < best {
				best = d
			}
		}
		out[v] = best
	}
	return out
}

// ProductCountsInto computes, over the (node × state) product space, the
// policy BFS distances, the number of distinct shortest product paths
// sigma, and the BFS visit order; indices are node*NumStates+state. It
// fills caller-owned buffers, for sweeps that run one product traversal
// per source: dist and sigma are reset through the previous call's order
// (every touched state appears there), so a reused buffer behaves exactly
// like a fresh one without the per-source allocation. Pass nil slices (or
// slices from a previous call on a same-sized graph) and keep all three
// returned slices together for the next call.
func (a *Annotated) ProductCountsInto(dist []int32, sigma []float64,
	order []int32, src int32) ([]int32, []float64, []int32) {

	n := a.G.NumNodes()
	sz := n * int(numStates)
	if cap(dist) < sz || cap(sigma) < sz {
		dist = make([]int32, sz)
		sigma = make([]float64, sz)
		for i := range dist {
			dist[i] = graph.Unreached
		}
	} else {
		// Reset at the incoming length before reslicing: a previous traversal
		// on a larger graph may have touched states beyond sz, and they must
		// read Unreached/0 if a later call grows back.
		for _, st := range order {
			dist[st] = graph.Unreached
			sigma[st] = 0
		}
		dist = dist[:sz]
		sigma = sigma[:sz]
	}
	order = order[:0]
	start := src*numStates + stateUp
	dist[start] = 0
	sigma[start] = 1
	order = append(order, start)
	goff, gadj := a.G.CSR()
	for head := 0; head < len(order); head++ {
		cur := order[head]
		u, s := cur/numStates, int(cur%numStates)
		du := dist[cur]
		for i := goff[u]; i < goff[u+1]; i++ {
			ns := transition(s, a.rel[i])
			if ns < 0 {
				continue
			}
			nxt := gadj[i]*numStates + int32(ns)
			if dist[nxt] == graph.Unreached {
				dist[nxt] = du + 1
				order = append(order, nxt)
			}
			if dist[nxt] == du+1 {
				sigma[nxt] += sigma[cur]
			}
		}
	}
	return dist, sigma, order
}

// productBFS returns distances over the product state space of a graph
// whose arc i crosses relationship rel[i], indexed node*numStates+state,
// plus the BFS visit order of product states.
func productBFS(g *graph.Graph, rel []Relationship, src int32) ([]int32, []int32) {
	n := g.NumNodes()
	dist := make([]int32, n*numStates)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	order := make([]int32, 0, n)
	start := src*numStates + stateUp
	dist[start] = 0
	order = append(order, start)
	off, adj := g.CSR()
	for head := 0; head < len(order); head++ {
		cur := order[head]
		u, s := cur/numStates, int(cur%numStates)
		du := dist[cur]
		for i := off[u]; i < off[u+1]; i++ {
			ns := transition(s, rel[i])
			if ns < 0 {
				continue
			}
			nxt := adj[i]*numStates + int32(ns)
			if dist[nxt] == graph.Unreached {
				dist[nxt] = du + 1
				order = append(order, nxt)
			}
		}
	}
	return dist, order
}

// productBall grows a policy ball over a graph whose arc i crosses
// relationship rel[i]: it marks target product states (optimal arrivals at
// members), then walks the shortest-path DAG backwards (decreasing
// distance) collecting every edge on a shortest path to a target.
func productBall(g *graph.Graph, rel []Relationship, src int32, h int) Ball {
	pd, order := productBFS(g, rel, src)
	n := g.NumNodes()
	minDist := func(v int32) int32 {
		best := graph.Unreached
		for s := int32(0); s < numStates; s++ {
			if d := pd[v*numStates+s]; d < best {
				best = d
			}
		}
		return best
	}
	b := Ball{Center: src, Radius: h}
	for v := int32(0); v < int32(n); v++ {
		if int(minDist(v)) <= h {
			b.Nodes = append(b.Nodes, v)
		}
	}
	marked := make([]bool, n*numStates)
	for _, v := range b.Nodes {
		md := minDist(v)
		for s := int32(0); s < numStates; s++ {
			if pd[v*numStates+s] == md {
				marked[v*numStates+s] = true
			}
		}
	}
	// order holds product states in nondecreasing distance; sweep it in
	// reverse so successors are finalized before predecessors.
	seen := map[uint64]bool{}
	off, adj := g.CSR()
	for i := len(order) - 1; i >= 0; i-- {
		cur := order[i]
		u, s := cur/numStates, int(cur%numStates)
		du := pd[cur]
		for arc := off[u]; arc < off[u+1]; arc++ {
			ns := transition(s, rel[arc])
			if ns < 0 {
				continue
			}
			v := adj[arc]
			nxt := v*numStates + int32(ns)
			if pd[nxt] == du+1 && marked[nxt] {
				marked[cur] = true
				k := key(minInt32(u, v), maxInt32(u, v))
				if !seen[k] {
					seen[k] = true
					b.Edges = append(b.Edges, graph.Edge{U: minInt32(u, v), V: maxInt32(u, v)})
				}
			}
		}
	}
	return b
}

func minInt32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func maxInt32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

// FuzzPathTreeMatchesReference checks the path tree against the product
// traversals it replaced, on raw-byte annotated graphs of up to 20 ASes
// (one relationship byte per edge, unannotated arcs included) and on a
// router overlay over them: at every source, the tree's product distances
// and per-node Dist equal productBFS's and productDist's, CountsInto's
// path counts equal ProductCountsInto's bit for bit, and the ball at every
// radius up to one past the eccentricity has the reference ball's nodes and
// edges, in the same order. One tree and one count row are recycled across
// sources and across the graphs: the AS graph, the larger router graph,
// then the AS graph again.
func FuzzPathTreeMatchesReference(f *testing.F) {
	f.Add(uint8(7), []byte{0, 1, 0, 1, 2, 2, 2, 3, 1, 3, 4, 3, 4, 5, 0, 5, 6, 1, 0, 6, 2},
		[]byte{5, 7, 8, 8, 9, 2, 10})
	f.Add(uint8(4), []byte{0, 1, 3, 1, 2, 3, 2, 3, 3, 3, 0, 3}, []byte{})
	f.Fuzz(func(t *testing.T, nRaw uint8, data, rdata []byte) {
		n := 1 + int(nRaw)%20
		b := graph.NewStreamBuilder(n)
		for i := 0; i+2 < len(data); i += 3 {
			b.AddEdge(int32(data[i])%int32(n), int32(data[i+1])%int32(n))
		}
		a := NewAnnotated(b.Graph())
		for i := 0; i+2 < len(data); i += 3 {
			u, v := int32(data[i])%int32(n), int32(data[i+1])%int32(n)
			if u == v {
				continue
			}
			switch data[i+2] % 5 {
			case 0:
				a.SetProviderCustomer(u, v)
			case 1:
				a.SetProviderCustomer(v, u)
			case 2:
				a.SetPeer(u, v)
			case 3:
				a.SetSibling(u, v)
			} // 4 keeps the edge's earlier annotation, RelNone if none
		}
		var tree *PathTree
		var sigma []float64
		check := func(label string, ref *Annotated) {
			g := ref.G
			for src := int32(0); src < int32(g.NumNodes()); src++ {
				tree = buildPathTree(tree, g, ref.rel, src)
				pd, _ := productBFS(g, ref.rel, src)
				if !slices.Equal(tree.dist, pd) {
					t.Fatalf("%s src %d: tree distances %v, productBFS %v", label, src, tree.dist, pd)
				}
				wantDist := productDist(g, ref.rel, src)
				ecc := int32(0)
				for v, d := range wantDist {
					if got := tree.Dist(int32(v)); got != d {
						t.Fatalf("%s src %d: Dist(%d) = %d, productDist %d", label, src, v, got, d)
					}
					if d != graph.Unreached {
						ecc = max(ecc, d)
					}
				}
				var dist []int32
				dist, sigma = tree.CountsInto(sigma)
				wd, ws, _ := ref.ProductCountsInto(nil, nil, nil, src)
				if !slices.Equal(dist, wd) || !slices.Equal(sigma, ws) {
					t.Fatalf("%s src %d: counts %v, ProductCountsInto %v", label, src, sigma, ws)
				}
				for h := 0; h <= int(ecc)+1; h++ {
					got, want := tree.Ball(h), productBall(g, ref.rel, src, h)
					if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Edges, want.Edges) {
						t.Fatalf("%s src %d h %d: ball %v %v, reference %v %v",
							label, src, h, got.Nodes, got.Edges, want.Nodes, want.Edges)
					}
				}
			}
		}
		check("AS", a)

		// Router r < n sits in AS r and the rest in AS r mod n; every AS
		// edge gets a router link, and rdata's pairs add links inside and
		// across ASes, adjacent in the AS graph or not.
		if len(rdata) == 0 {
			return
		}
		rn := n + int(rdata[0])%16
		asOf := make([]int32, rn)
		for r := range asOf {
			asOf[r] = int32(r % n)
		}
		rb := graph.NewStreamBuilder(rn)
		for _, e := range a.G.Edges() {
			rb.AddEdge(e.U, e.V)
		}
		for i := 1; i+1 < len(rdata); i += 2 {
			rb.AddEdge(int32(rdata[i])%int32(rn), int32(rdata[i+1])%int32(rn))
		}
		o, err := NewRouterOverlay(rb.Graph(), asOf, a)
		if err != nil {
			t.Fatal(err)
		}
		check("router", &Annotated{G: o.RL, rel: o.rel})
		check("AS after router", a) // the recycled tree shrinks
	})
}
