package policy

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
)

// relMap is the historical map-backed annotation, kept as the reference for
// the per-arc relationship bytes: one entry per annotated directed pair,
// later writes winning, RelNone for anything absent.
type relMap map[[2]int32]Relationship

func (m relMap) setProviderCustomer(p, c int32) {
	m[[2]int32{p, c}], m[[2]int32{c, p}] = RelCustomer, RelProvider
}

func (m relMap) setSymmetric(u, v int32, r Relationship) {
	m[[2]int32{u, v}], m[[2]int32{v, u}] = r, r
}

// pathTreeRef is the historical path-tree builder: a BFS over the product
// space whose successors come from an expander closure.
func pathTreeRef(src int32, n int, expand func(cur int32, visit func(next int32))) *PathTree {
	t := &PathTree{src: src, dist: make([]int32, n*numStates),
		parent: make([]int32, n*numStates), best: make([]int32, n)}
	for i := range t.dist {
		t.dist[i], t.parent[i] = graph.Unreached, -1
	}
	start := ProductStart(src)
	t.dist[start] = 0
	queue := []int32{start}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		expand(cur, func(next int32) {
			if t.dist[next] == graph.Unreached {
				t.dist[next], t.parent[next] = t.dist[cur]+1, cur
				queue = append(queue, next)
			}
		})
	}
	for v := int32(0); v < int32(n); v++ {
		t.best[v] = -1
		bestD := graph.Unreached
		for s := int32(0); s < numStates; s++ {
			if st := v*numStates + s; t.dist[st] < bestD {
				bestD, t.best[v] = t.dist[st], st
			}
		}
	}
	return t
}

// expand is the historical PathsInto expander: one map lookup per hop.
func (m relMap) expand(g *graph.Graph) func(cur int32, visit func(next int32)) {
	return func(cur int32, visit func(next int32)) {
		u, s := cur/numStates, int(cur%numStates)
		for _, v := range g.Neighbors(u) {
			if ns := transition(s, m[[2]int32{u, v}]); ns >= 0 {
				visit(v*numStates + int32(ns))
			}
		}
	}
}

// expandRouters is the historical RouterOverlay expander: intra-AS hops
// keep the state, inter-AS hops look the AS pair up in the map.
func (m relMap) expandRouters(rl *graph.Graph, asOf []int32) func(cur int32, visit func(next int32)) {
	return func(cur int32, visit func(next int32)) {
		u, s := cur/numStates, int(cur%numStates)
		for _, v := range rl.Neighbors(u) {
			ns := s
			if asU, asV := asOf[u], asOf[v]; asU != asV {
				if ns = transition(s, m[[2]int32{asU, asV}]); ns < 0 {
					continue
				}
			}
			visit(v*numStates + int32(ns))
		}
	}
}

// annotateBoth applies the same random annotation, with overwrites and
// with some edges left unannotated, to an Annotated and a relMap.
func annotateBoth(r *rand.Rand, g *graph.Graph) (*Annotated, relMap) {
	a, m := NewAnnotated(g), relMap{}
	edges := g.Edges()
	for i := 0; i < 2*len(edges); i++ {
		e := edges[r.Intn(len(edges))]
		switch r.Intn(4) {
		case 0:
			a.SetProviderCustomer(e.U, e.V)
			m.setProviderCustomer(e.U, e.V)
		case 1:
			a.SetProviderCustomer(e.V, e.U)
			m.setProviderCustomer(e.V, e.U)
		case 2:
			a.SetPeer(e.U, e.V)
			m.setSymmetric(e.U, e.V, RelPeer)
		default:
			a.SetSibling(e.V, e.U)
			m.setSymmetric(e.V, e.U, RelSibling)
		}
	}
	return a, m
}

func samePathTrees(t *testing.T, what string, got, want *PathTree) {
	t.Helper()
	if !slices.Equal(got.dist, want.dist) || !slices.Equal(got.parent, want.parent) ||
		!slices.Equal(got.best, want.best) {
		t.Fatalf("%s: path tree differs from the map-backed reference", what)
	}
}

// TestAnnotatedMatchesRelMap checks the per-arc relationships against the
// map-backed reference on random graphs: Rel on every ordered pair, edge or
// not; the AS and router path trees and distances; and the product CSR and
// path counts.
func TestAnnotatedMatchesRelMap(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomAnnotated(r, 20+int(seed)*15, 40*int(seed)).G
		a, m := annotateBoth(r, g)
		n := int32(g.NumNodes())
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				if got, want := a.Rel(u, v), m[[2]int32{u, v}]; got != want {
					t.Fatalf("seed %d: Rel(%d,%d) = %v, reference %v", seed, u, v, got, want)
				}
			}
		}

		// The product CSR lists exactly the reference expander's arcs.
		off, adj := a.ProductCSR()
		expand := m.expand(g)
		for st := int32(0); st < n*numStates; st++ {
			var want []int32
			expand(st, func(next int32) { want = append(want, next) })
			if !slices.Equal(adj[off[st]:off[st+1]], want) {
				t.Fatalf("seed %d: ProductCSR row %d = %v, reference %v", seed, st, adj[off[st]:off[st+1]], want)
			}
		}

		// Routers: each AS owns 1-3 routers on a chain; one router link per
		// AS edge, plus random intra- and inter-AS links.
		var asOf []int32
		first := make([]int32, n)
		for as := int32(0); as < n; as++ {
			first[as] = int32(len(asOf))
			for k := 0; k < 1+r.Intn(3); k++ {
				asOf = append(asOf, as)
			}
		}
		rb := graph.NewStreamBuilder(len(asOf))
		for i := 1; i < len(asOf); i++ {
			if asOf[i] == asOf[i-1] {
				rb.AddEdge(int32(i-1), int32(i))
			}
		}
		for _, e := range g.Edges() {
			rb.AddEdge(first[e.U], first[e.V])
		}
		for i := 0; i < len(asOf); i++ {
			rb.AddEdge(int32(r.Intn(len(asOf))), int32(r.Intn(len(asOf))))
		}
		rl := rb.Graph()
		o, err := NewRouterOverlay(rl, asOf, a)
		if err != nil {
			t.Fatal(err)
		}

		var pt, rt *PathTree
		for src := int32(0); src < n; src++ {
			pt = a.PathsInto(pt, src)
			ref := pathTreeRef(src, int(n), expand)
			samePathTrees(t, "AS", pt, ref)
			rt = o.PathsInto(rt, first[src])
			rref := pathTreeRef(first[src], rl.NumNodes(), m.expandRouters(rl, asOf))
			samePathTrees(t, "router", rt, rref)
			if !slices.Equal(a.Dist(src), treeDist(ref)) || !slices.Equal(o.Dist(first[src]), treeDist(rref)) {
				t.Fatalf("seed %d src %d: Dist differs from the reference tree", seed, src)
			}

			// Path counts: BFS over the reference expander.
			dist, sigma, _ := a.ProductCounts(src)
			wd, ws := countPaths(expand, int(n), src)
			if !slices.Equal(dist, wd) || !slices.Equal(sigma, ws) {
				t.Fatalf("seed %d src %d: ProductCounts differs from the reference", seed, src)
			}
		}
	}
}

func treeDist(t *PathTree) []int32 {
	out := make([]int32, len(t.best))
	for v := range out {
		out[v] = t.Dist(int32(v))
	}
	return out
}

func countPaths(expand func(int32, func(int32)), n int, src int32) ([]int32, []float64) {
	dist := make([]int32, n*numStates)
	sigma := make([]float64, n*numStates)
	for i := range dist {
		dist[i] = graph.Unreached
	}
	start := ProductStart(src)
	dist[start], sigma[start] = 0, 1
	queue := []int32{start}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		expand(cur, func(next int32) {
			if dist[next] == graph.Unreached {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
			if dist[next] == dist[cur]+1 {
				sigma[next] += sigma[cur]
			}
		})
	}
	return dist, sigma
}

func TestAnnotateNonEdgePanics(t *testing.T) {
	a := figure15()
	for name, set := range map[string]func(){
		"provider-customer": func() { a.SetProviderCustomer(nA, nD) },
		"peer":              func() { a.SetPeer(nB, nC) },
		"sibling":           func() { a.SetSibling(nG, nG) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: annotating a non-edge did not panic", name)
				}
			}()
			set()
		}()
	}
	if a.Rel(nA, nD) != RelNone {
		t.Fatalf("Rel of a non-edge = %v, want none", a.Rel(nA, nD))
	}
}
