package hierarchy

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
)

// bruteEntries enumerates the pair entries by explicit pair enumeration:
// for every ordered pair (u,t) of the pair universe and every edge (a,b) on
// u's shortest-path DAG toward t, the fraction of u→t shortest paths
// through the edge is sigma_u(a)*sigma_t(b)/sigma_u(t). It is an
// independent reference for the sweep: all-pairs BFS rows instead of
// per-source rows, and no ancestor walk.
func bruteEntries(g *graph.Graph, inQ []bool) []pairEntry {
	ix := graph.NewEdgeIndex(g)
	n := g.NumNodes()
	dists := make([][]int32, n)
	sigmas := make([][]float64, n)
	for v := int32(0); v < int32(n); v++ {
		dists[v], sigmas[v], _ = g.BFSCounts(v)
	}
	var entries []pairEntry
	for u := int32(0); u < int32(n); u++ {
		for t := int32(0); t < int32(n); t++ {
			if u == t || !inQ[u] || !inQ[t] || dists[u][t] == graph.Unreached {
				continue
			}
			for _, e := range g.Edges() {
				for _, dir := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
					a, b := dir[0], dir[1]
					if dists[u][a] == graph.Unreached || dists[t][b] == graph.Unreached {
						continue
					}
					if dists[u][a]+1+dists[t][b] == dists[u][t] {
						w := sigmas[u][a] * sigmas[t][b] / sigmas[u][t]
						entries = append(entries, pairEntry{
							edge: uint32(ix.ID(a, b)), u: u, t: t, w: w,
						})
					}
				}
			}
		}
	}
	return entries
}

// bruteLinkValues groups the brute entries by sorting them into the
// canonical (edge, u, t) order and covers each group.
func bruteLinkValues(g *graph.Graph, opts Options) *Result {
	sources, inQ := sampleSources(g.NumNodes(), opts)
	entries := bruteEntries(g, inQ)
	slices.SortFunc(entries, func(x, y pairEntry) int {
		return cmp.Or(cmp.Compare(x.edge, y.edge), cmp.Compare(x.u, y.u), cmp.Compare(x.t, y.t))
	})
	ws := &coverScratch{}
	ws.ensure(g.NumNodes())
	values := make([]float64, g.NumEdges())
	for lo := 0; lo < len(entries); {
		hi := lo
		var group []coverEntry
		for ; hi < len(entries) && entries[hi].edge == entries[lo].edge; hi++ {
			group = append(group, coverEntry{u: entries[hi].u, t: entries[hi].t, w: entries[hi].w})
		}
		values[entries[lo].edge] = edgeCover(group, ws)
		lo = hi
	}
	return &Result{Edges: g.Edges(), Values: values, N: len(sources)}
}

// bruteTraversalSetSizes counts, per edge, the distinct (u, t) pairs of the
// brute enumeration that cross it.
func bruteTraversalSetSizes(g *graph.Graph, opts Options) []int {
	_, inQ := sampleSources(g.NumNodes(), opts)
	pairs := map[[3]int32]bool{}
	for _, p := range bruteEntries(g, inQ) {
		pairs[[3]int32{int32(p.edge), p.u, p.t}] = true
	}
	counts := make([]int, g.NumEdges())
	for k := range pairs {
		counts[k[0]]++
	}
	return counts
}

// twoComponentsAndIsolated is a 3×3 grid, a chorded 6-cycle and an isolated
// node: scalar rows left by a source in one component are stale in the
// other, which only the target gate may read.
func twoComponentsAndIsolated() *graph.Graph {
	var edges []graph.Edge
	for r := int32(0); r < 3; r++ {
		for c := int32(0); c < 3; c++ {
			v := 3*r + c
			if c < 2 {
				edges = append(edges, graph.Edge{U: v, V: v + 1})
			}
			if r < 2 {
				edges = append(edges, graph.Edge{U: v, V: v + 3})
			}
		}
	}
	for i := int32(0); i < 6; i++ {
		edges = append(edges, graph.Edge{U: 9 + i, V: 9 + (i+1)%6})
	}
	edges = append(edges, graph.Edge{U: 9, V: 12})
	return graph.FromEdges(16, edges)
}

// TestSweepMatchesBruteForce checks link values and traversal-set sizes
// against the brute-force references, for both row providers and the
// probe, at one and four workers, over the full and a sampled pair
// universe.
func TestSweepMatchesBruteForce(t *testing.T) {
	cases := map[string]*graph.Graph{
		"Linear":       canonical.Linear(7),
		"Mesh":         canonical.Mesh(4, 5),
		"Tree":         canonical.Tree(2, 3),
		"Complete":     canonical.Complete(5),
		"Random":       canonical.Random(rand.New(rand.NewSource(1)), 25, 0.2),
		"Disconnected": twoComponentsAndIsolated(),
	}
	for name, g := range cases {
		for _, budget := range []int{0, g.NumNodes() / 2} {
			opts := func() Options {
				return Options{MaxSources: budget, Rand: rand.New(rand.NewSource(5))}
			}
			want := bruteLinkValues(g, opts())
			wantTS := bruteTraversalSetSizes(g, opts())
			for _, force := range []provider{probed, scalarProvider, batchProvider} {
				for _, parallel := range []int{1, 4} {
					label := fmt.Sprintf("%s budget=%d provider=%d P=%d", name, budget, force, parallel)
					o := opts()
					o.Parallelism, o.force = parallel, force
					got := LinkValues(g, o)
					if got.N != want.N {
						t.Fatalf("%s: N = %d, want %d", label, got.N, want.N)
					}
					for i := range want.Values {
						if math.Abs(want.Values[i]-got.Values[i]) > 1e-6 {
							t.Fatalf("%s edge %v: sweep %v vs brute %v",
								label, want.Edges[i], got.Values[i], want.Values[i])
						}
					}
					o = opts()
					o.Parallelism, o.force = parallel, force
					if ts := TraversalSetSizes(g, o); !reflect.DeepEqual(ts, wantTS) {
						t.Fatalf("%s: traversal-set sizes %v, brute %v", label, ts, wantTS)
					}
				}
			}
		}
	}
}
