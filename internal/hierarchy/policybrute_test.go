package hierarchy

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// policyPair is one ordered pair's shortest valley-free paths: how many
// there are, and how many of them cross each edge (by edge id).
type policyPair struct {
	paths int
	cross map[uint32]int
}

// brutePolicyPairs enumerates, for every ordered pair (u, t) of the pair
// universe with t reachable, the shortest valley-free paths from u to t one
// by one. Product distances come from Floyd–Warshall over the (node ×
// state) graph; a depth-first walk from (u, up) then follows every product
// arc that lengthens the distance by exactly one, so each walk prefix is a
// shortest path to its end state, and a prefix ending at t in one of t's
// nearest states is one of the pair's shortest paths. It shares nothing
// with the sweep but Annotated.Transition.
func brutePolicyPairs(a *policy.Annotated, inQ []bool) map[[2]int32]policyPair {
	g := a.G
	n, ns := g.NumNodes(), policy.NumStates
	states := n * ns
	const inf = math.MaxInt32 / 2
	d := make([][]int, states)
	for x := range d {
		d[x] = make([]int, states)
		for y := range d[x] {
			d[x][y] = inf
		}
		d[x][x] = 0
		v, s := int32(x/ns), x%ns
		for _, w := range g.Neighbors(v) {
			if s2 := a.Transition(v, w, s); s2 >= 0 {
				d[x][int(w)*ns+s2] = 1
			}
		}
	}
	for k := range states {
		for x := range states {
			for y := range states {
				if d[x][k]+d[k][y] < d[x][y] {
					d[x][y] = d[x][k] + d[k][y]
				}
			}
		}
	}
	ix := graph.NewEdgeIndex(g)
	out := map[[2]int32]policyPair{}
	for u := int32(0); u < int32(n); u++ {
		if !inQ[u] {
			continue
		}
		row := d[int(u)*ns] // from (u, up)
		nearest := func(t int32) int {
			best := inf
			for s := range ns {
				best = min(best, row[int(t)*ns+s])
			}
			return best
		}
		var edges []uint32
		var walk func(x int)
		walk = func(x int) {
			t := int32(x / ns)
			if t != u && inQ[t] && row[x] == nearest(t) {
				p := out[[2]int32{u, t}]
				if p.cross == nil {
					p.cross = map[uint32]int{}
				}
				p.paths++
				for _, e := range edges {
					p.cross[e]++
				}
				out[[2]int32{u, t}] = p
			}
			for _, w := range g.Neighbors(t) {
				s2 := a.Transition(t, w, x%ns)
				if s2 < 0 {
					continue
				}
				if y := int(w)*ns + s2; row[y] == row[x]+1 {
					edges = append(edges, uint32(ix.ID(t, w)))
					walk(y)
					edges = edges[:len(edges)-1]
				}
			}
		}
		walk(int(u) * ns)
	}
	return out
}

// FuzzPolicyLinkValuesMatchesBrute checks the policy sweep over unordered
// pairs on raw-byte annotated graphs of up to 20 nodes (one relationship
// byte per edge, unannotated edges included), over a sampled or the full
// pair universe:
//   - every ordered pair's shortest valley-free paths cross every edge
//     exactly as often as its mirror's do, out of as many paths, which is
//     the reversal argument the half route rests on;
//   - the half stream holds exactly the brute enumeration's (edge, u, t)
//     entries with u < t, each fraction within 1e-12 relative of brute's
//     crossing share;
//   - PolicyLinkValues equals, bit for bit, the ordered cover over the
//     half stream with every entry mirrored as (edge, t, u);
//   - P = 1 and P = 3 give bit-identical values.
func FuzzPolicyLinkValuesMatchesBrute(f *testing.F) {
	f.Add(uint8(9), uint8(0), []byte{0, 1, 0, 1, 2, 0, 2, 3, 2, 3, 4, 1, 4, 5, 3, 1, 6, 0, 6, 7, 1, 7, 8, 2, 2, 8, 0})
	f.Add(uint8(12), uint8(6), []byte{0, 1, 3, 0, 2, 0, 1, 3, 1, 2, 3, 0, 3, 4, 2, 4, 5, 0, 5, 6, 1, 4, 7, 3, 7, 6, 0, 8, 9, 2, 9, 10, 4})
	f.Fuzz(func(t *testing.T, nRaw, budgetRaw uint8, data []byte) {
		n := 1 + int(nRaw)%20
		b := graph.NewStreamBuilder(n)
		for i := 0; i+2 < len(data); i += 3 {
			b.AddEdge(int32(data[i])%int32(n), int32(data[i+1])%int32(n))
		}
		a := policy.NewAnnotated(b.Graph())
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
			} // 4 keeps the edge's earlier annotation, none if unset
		}
		budget := int(budgetRaw) % (n + 1) // 0: the full universe
		opts := func(parallel int) Options {
			return Options{MaxSources: budget, Rand: rand.New(rand.NewSource(int64(budgetRaw))),
				Parallelism: parallel}
		}

		o := opts(1)
		o.defaults()
		sources, inQ := sampleSources(n, o)
		brute := brutePolicyPairs(a, inQ)
		type key struct {
			edge uint32
			u, t int32
		}
		want := map[key]float64{}
		for k, p := range brute {
			m, ok := brute[[2]int32{k[1], k[0]}]
			if !ok || m.paths != p.paths || !maps.Equal(m.cross, p.cross) {
				t.Fatalf("pair %v: %d paths crossing %v, mirror %d paths crossing %v",
					k, p.paths, p.cross, m.paths, m.cross)
			}
			if k[0] < k[1] {
				for e, c := range p.cross {
					want[key{e, k[0], k[1]}] = float64(c) / float64(p.paths)
				}
			}
		}

		streams, release := sweepPolicy(a, &o, sources, inQ)
		half := streamEntries(streams)
		release()
		if len(half) != len(want) {
			t.Fatalf("half stream has %d entries, brute %d", len(half), len(want))
		}
		for _, p := range half {
			w, ok := want[key{p.edge, p.u, p.t}]
			if !ok {
				t.Fatalf("half stream entry %+v not in brute", p)
			}
			if math.Abs(p.w-w) > 1e-12*math.Max(math.Abs(p.w), math.Abs(w)) {
				t.Fatalf("entry %+v: fraction %v, brute %v", p, p.w, w)
			}
		}

		mirrored := slices.Clone(half)
		for _, p := range half {
			mirrored = append(mirrored, pairEntry{edge: p.edge, u: p.t, t: p.u, w: p.w})
		}
		ordered, _ := coversOf(mirrored, a.G.NumEdges(), n, edgeCoverOrdered)
		got := PolicyLinkValues(a, opts(1)).Values
		if !slices.Equal(got, ordered) {
			t.Fatalf("PolicyLinkValues %v, mirrored ordered cover %v", got, ordered)
		}
		if v := PolicyLinkValues(a, opts(3)).Values; !slices.Equal(v, got) {
			t.Fatalf("P=3: values %v, P=1 %v", v, got)
		}
	})
}
