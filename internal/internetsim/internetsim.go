// Package internetsim synthesizes a ground-truth Internet for the
// measurement pipeline that replaces the paper's proprietary data sources
// (the route-views BGP table and the SCAN/Mercator router-level map — see
// DESIGN.md's substitution table).
//
// The AS level models the Internet's commercial structure: a clique of
// tier-1 providers, a transit middle class that buys upstream connectivity
// preferentially from well-connected providers, heavy-tailed multihoming of
// stub ASes, and peering among comparable ASes. Preferential provider
// selection yields the heavy-tailed degree distribution measured by
// Faloutsos et al.; the provider/customer annotations give the policy
// ground truth Gao's algorithm is later tested against.
//
// The router level expands each AS into a PoP-style internal network whose
// size is coupled to the AS's degree (after Tangmunarunkit et al., "Does AS
// Size Determine AS Degree?"), with backbone routers, degree-1 access
// routers, and border routers per AS adjacency.
package internetsim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
	"topocmp/internal/rng"
)

// ASParams configures the AS-level synthesis.
type ASParams struct {
	NumAS    int     // total ASes (paper's AS graph: 10941)
	NumTier1 int     // tier-1 clique size; default 10
	Transit  float64 // fraction of non-tier-1 ASes that sell transit; default 0.15
	// MultihomeAlpha shapes the bounded-Pareto provider count of stubs
	// (1 = very heavy multihoming tail); default 1.8.
	MultihomeAlpha float64
	MaxProviders   int     // cap on providers per AS; default 8
	PeerFactor     float64 // expected peer links per transit AS; default 1.0
}

func (p *ASParams) defaults() {
	if p.NumTier1 == 0 {
		p.NumTier1 = 10
	}
	if p.Transit == 0 {
		p.Transit = 0.15
	}
	if p.MultihomeAlpha == 0 {
		p.MultihomeAlpha = 1.8
	}
	if p.MaxProviders == 0 {
		p.MaxProviders = 8
	}
	if p.PeerFactor == 0 {
		p.PeerFactor = 1.0
	}
}

// Validate reports whether the parameters are usable.
func (p ASParams) Validate() error {
	if p.NumAS < 3 {
		return fmt.Errorf("internetsim: NumAS = %d < 3", p.NumAS)
	}
	if p.NumTier1 >= p.NumAS {
		return fmt.Errorf("internetsim: NumTier1 %d >= NumAS %d", p.NumTier1, p.NumAS)
	}
	return nil
}

// Tier labels.
const (
	Tier1 = iota
	TierTransit
	TierStub
)

// ASLevel is the ground-truth AS topology.
type ASLevel struct {
	Graph     *graph.Graph
	Annotated *policy.Annotated
	Tier      []int // Tier1 / TierTransit / TierStub per AS
}

// GenerateAS synthesizes the AS-level Internet.
func GenerateAS(r *rand.Rand, p ASParams) (*ASLevel, error) {
	p.defaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.NumAS
	// Every edge below is distinct (a pick excludes the AS's earlier
	// providers, and peering checks seen), so the edges stream as they are.
	b := graph.NewStreamBuilder(n)
	tier := make([]int, n)
	type rel struct {
		u, v int32
		kind policy.Relationship // RelCustomer: u provider of v; RelPeer
	}
	var rels []rel

	// Tier-1 clique of peers.
	t1 := p.NumTier1
	if t1 < 2 {
		t1 = 2
	}
	for i := 0; i < t1; i++ {
		tier[i] = Tier1
		for j := i + 1; j < t1; j++ {
			b.AddEdge(int32(i), int32(j))
			rels = append(rels, rel{int32(i), int32(j), policy.RelPeer})
		}
	}

	numTransit := int(float64(n-t1) * p.Transit)
	transitLimit := t1 + numTransit
	// Providers are drawn proportionally to 1 + customer count among the
	// transit-capable ASes inserted so far (tier-1 ASes start at 3
	// customers). The weights live in a Fenwick tree; an AS's providers
	// are zeroed while it picks, which excludes them, and reinserted
	// afterwards with their new customer counts.
	custDeg := make([]int64, transitLimit)
	w := make(fenwick, transitLimit)
	for i := 0; i < t1; i++ {
		custDeg[i] = 3
		w.add(i, 1+custDeg[i])
	}
	var picked []int32
	pickProviders := func(v int32, k int) {
		picked = picked[:0]
		for i := 0; i < k; i++ {
			total := w.total()
			if total == 0 {
				break
			}
			// The weights are integers and every partial sum is exact in a
			// float64, so the AS whose cumulative weight first exceeds x is
			// the first whose prefix sum exceeds floor(x). x < total, so
			// one does.
			x := r.Float64() * float64(total)
			pr := w.search(int64(x))
			w.add(pr, -(1 + custDeg[pr]))
			picked = append(picked, int32(pr))
			b.AddEdge(int32(pr), v)
			rels = append(rels, rel{int32(pr), v, policy.RelCustomer})
			custDeg[pr]++
		}
		for _, pr := range picked {
			w.add(int(pr), 1+custDeg[pr])
		}
	}

	// Transit middle class: 1-3 providers each among earlier ASes.
	for v := t1; v < transitLimit; v++ {
		tier[v] = TierTransit
		pickProviders(int32(v), 1+r.Intn(3))
		w.add(v, 1+custDeg[v])
	}

	// Stubs: bounded-Pareto provider counts, preferential selection among
	// all transit-capable ASes.
	for v := transitLimit; v < n; v++ {
		tier[v] = TierStub
		pickProviders(int32(v), rng.BoundedParetoInt(r, 1, p.MaxProviders, p.MultihomeAlpha))
	}

	// Peering among transit ASes of comparable standing (and a sprinkle of
	// stub-stub IXP peering). Its pairs lie in [t1, transitLimit], so only
	// the customer links inside that range can collide with them.
	seen := map[uint64]bool{}
	pair := func(u, v int32) uint64 { return uint64(min(u, v))<<32 | uint64(max(u, v)) }
	for _, rl := range rels {
		if rl.u >= int32(t1) && rl.v <= int32(transitLimit) {
			seen[pair(rl.u, rl.v)] = true
		}
	}
	numPeer := int(p.PeerFactor * float64(numTransit))
	for i := 0; i < numPeer; i++ {
		u := int32(t1 + r.Intn(numTransit+1))
		v := int32(t1 + r.Intn(numTransit+1))
		if u == v || u >= int32(n) || v >= int32(n) || seen[pair(u, v)] {
			continue
		}
		seen[pair(u, v)] = true
		b.AddEdge(u, v)
		rels = append(rels, rel{u, v, policy.RelPeer})
	}
	g := b.Graph()
	a := policy.NewAnnotated(g)
	for _, rl := range rels {
		switch rl.kind {
		case policy.RelCustomer:
			a.SetProviderCustomer(rl.u, rl.v)
		case policy.RelPeer:
			a.SetPeer(rl.u, rl.v)
		}
	}
	return &ASLevel{Graph: g, Annotated: a, Tier: tier}, nil
}

// fenwick is a binary indexed tree over int64 weights: point updates,
// the total, and the search for the first index whose prefix sum exceeds a
// bound, each in O(log n).
type fenwick []int64 // 1-based: f[i-1] sums the weights in (i - i&-i, i]

func (f fenwick) add(i int, d int64) {
	for i++; i <= len(f); i += i & -i {
		f[i-1] += d
	}
}

func (f fenwick) total() int64 {
	var s int64
	for i := len(f); i > 0; i -= i & -i {
		s += f[i-1]
	}
	return s
}

// search returns the smallest index whose prefix sum exceeds t, or len(f)
// when none does.
func (f fenwick) search(t int64) int {
	pos := 0
	for step := bits.Len(uint(len(f))); step > 0; step-- {
		next := pos + 1<<(step-1)
		if next <= len(f) && f[next-1] <= t {
			pos = next
			t -= f[next-1]
		}
	}
	return pos
}

// MustGenerateAS is GenerateAS but panics on error.
func MustGenerateAS(r *rand.Rand, p ASParams) *ASLevel {
	as, err := GenerateAS(r, p)
	if err != nil {
		panic(err)
	}
	return as
}
