package internetsim

import (
	"math/rand"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
	"topocmp/internal/rng"
)

// generateASScan is the historical GenerateAS, kept as the reference for
// the Fenwick-tree provider picks: every pick re-sums 1 + customer count
// over all transit-capable ASes in float64 and scans for the first
// cumulative weight above the draw, the peering loop asks the map builder
// for membership, and the relationships go into a map keyed by directed
// pair, later writes winning.
func generateASScan(r *rand.Rand, p ASParams) (*graph.Graph, []int, map[[2]int32]policy.Relationship, error) {
	p.defaults()
	if err := p.Validate(); err != nil {
		return nil, nil, nil, err
	}
	n := p.NumAS
	b := graph.NewBuilder(n)
	tier := make([]int, n)
	rels := map[[2]int32]policy.Relationship{}
	providerCustomer := func(pr, c int32) {
		rels[[2]int32{pr, c}] = policy.RelCustomer
		rels[[2]int32{c, pr}] = policy.RelProvider
	}
	peer := func(u, v int32) {
		rels[[2]int32{u, v}] = policy.RelPeer
		rels[[2]int32{v, u}] = policy.RelPeer
	}

	t1 := p.NumTier1
	if t1 < 2 {
		t1 = 2
	}
	for i := 0; i < t1; i++ {
		tier[i] = Tier1
		for j := i + 1; j < t1; j++ {
			b.AddEdge(int32(i), int32(j))
			peer(int32(i), int32(j))
		}
	}

	numTransit := int(float64(n-t1) * p.Transit)
	custDeg := make([]float64, n)
	for i := 0; i < t1; i++ {
		custDeg[i] = 3
	}
	pickProvider := func(limit int, exclude map[int32]bool) int32 {
		total := 0.0
		for v := 0; v < limit; v++ {
			if !exclude[int32(v)] && tier[v] != TierStub {
				total += 1 + custDeg[v]
			}
		}
		if total == 0 {
			return -1
		}
		x := r.Float64() * total
		acc := 0.0
		for v := 0; v < limit; v++ {
			if exclude[int32(v)] || tier[v] == TierStub {
				continue
			}
			acc += 1 + custDeg[v]
			if x < acc {
				return int32(v)
			}
		}
		return -1
	}

	for v := t1; v < t1+numTransit; v++ {
		tier[v] = TierTransit
		k := 1 + r.Intn(3)
		exclude := map[int32]bool{int32(v): true}
		for i := 0; i < k; i++ {
			pr := pickProvider(v, exclude)
			if pr < 0 {
				break
			}
			exclude[pr] = true
			b.AddEdge(pr, int32(v))
			providerCustomer(pr, int32(v))
			custDeg[pr]++
		}
	}

	transitLimit := t1 + numTransit
	for v := transitLimit; v < n; v++ {
		tier[v] = TierStub
		k := rng.BoundedParetoInt(r, 1, p.MaxProviders, p.MultihomeAlpha)
		exclude := map[int32]bool{int32(v): true}
		for i := 0; i < k; i++ {
			pr := pickProvider(transitLimit, exclude)
			if pr < 0 {
				break
			}
			exclude[pr] = true
			b.AddEdge(pr, int32(v))
			providerCustomer(pr, int32(v))
			custDeg[pr]++
		}
	}

	numPeer := int(p.PeerFactor * float64(numTransit))
	for i := 0; i < numPeer; i++ {
		u := int32(t1 + r.Intn(numTransit+1))
		v := int32(t1 + r.Intn(numTransit+1))
		if u == v || u >= int32(n) || v >= int32(n) || b.HasEdge(u, v) {
			continue
		}
		b.AddEdge(u, v)
		peer(u, v)
	}
	return b.Graph(), tier, rels, nil
}

// checkGenerateASMatchesScan builds the same parameters through GenerateAS
// and the reference from one seed each and requires the same graph, tiers,
// relationship on every arc and RNG position afterwards.
func checkGenerateASMatchesScan(t *testing.T, seed int64, p ASParams) {
	t.Helper()
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	as, err := GenerateAS(r1, p)
	g, tier, rels, refErr := generateASScan(r2, p)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("%+v: error %v, reference %v", p, err, refErr)
	}
	if err != nil {
		return
	}
	if as.Graph.Fingerprint() != g.Fingerprint() {
		t.Fatalf("%+v: graph differs from the reference (%d/%d edges)",
			p, as.Graph.NumEdges(), g.NumEdges())
	}
	for v := range tier {
		if as.Tier[v] != tier[v] {
			t.Fatalf("%+v: tier[%d] = %d, reference %d", p, v, as.Tier[v], tier[v])
		}
	}
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if got, want := as.Annotated.Rel(u, v), rels[[2]int32{u, v}]; got != want {
				t.Fatalf("%+v: rel(%d,%d) = %v, reference %v", p, u, v, got, want)
			}
		}
	}
	if a, b := r1.Int63(), r2.Int63(); a != b {
		t.Fatalf("%+v: RNG streams diverged after generation", p)
	}
}

func TestGenerateASMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		checkGenerateASMatchesScan(t, seed, ASParams{NumAS: 1500})
	}
	checkGenerateASMatchesScan(t, 5, ASParams{NumAS: 3, NumTier1: 1})
	checkGenerateASMatchesScan(t, 6, ASParams{NumAS: 40, Transit: 1, MaxProviders: 1})
	checkGenerateASMatchesScan(t, 7, ASParams{NumAS: 5, NumTier1: 10})
}

// FuzzGenerateASMatchesScan draws small random parameter sets and checks
// the Fenwick-tree provider picks against the linear-scan reference.
func FuzzGenerateASMatchesScan(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint16(40), uint8(3), uint8(255), uint8(8), uint8(1), uint8(200))
	f.Add(int64(3), uint16(0), uint8(1), uint8(128), uint8(64), uint8(11), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, numAS uint16, tier1, transit, alpha, maxProv, peer uint8) {
		checkGenerateASMatchesScan(t, seed, ASParams{
			NumAS:          3 + int(numAS%600),
			NumTier1:       int(tier1 % 16),
			Transit:        float64(transit) / 255,
			MultihomeAlpha: float64(alpha) / 32,
			MaxProviders:   int(maxProv % 12),
			PeerFactor:     float64(peer) / 64,
		})
	})
}
