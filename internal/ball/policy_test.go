package ball

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/partition"
	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

// annotatedFromBytes builds an n-node annotated graph from raw bytes, one
// edge per three: two endpoints and a relationship byte (provider–customer
// either way, peer, sibling). Self-loops add nothing; a repeated edge keeps
// its last relationship.
func annotatedFromBytes(n int, data []byte) *policy.Annotated {
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
		switch data[i+2] % 4 {
		case 0:
			a.SetProviderCustomer(u, v)
		case 1:
			a.SetProviderCustomer(v, u)
		case 2:
			a.SetPeer(u, v)
		case 3:
			a.SetSibling(u, v)
		}
	}
	return a
}

// policyCumRef returns the policy ball size at every radius around c, read
// off a fresh path tree: cum[h] counts the nodes at policy distance h or
// less, up to c's policy eccentricity.
func policyCumRef(a *policy.Annotated, c int32) []int32 {
	t := a.PathsInto(nil, c)
	n := int32(a.G.NumNodes())
	ecc := int32(0)
	for v := int32(0); v < n; v++ {
		if d := t.Dist(v); d != graph.Unreached {
			ecc = max(ecc, d)
		}
	}
	cum := make([]int32, ecc+1)
	for h := range cum {
		for v := int32(0); v < n; v++ {
			if d := t.Dist(v); d != graph.Unreached && d <= int32(h) {
				cum[h]++
			}
		}
	}
	return cum
}

// FuzzPolicyProfilesMatchPathTree checks the policy engine against fresh
// path trees on raw-byte annotated graphs of up to 40 nodes, isolated
// nodes and several components included. Profiles of 1–40 centers,
// repeats included, hold the policy ball sizes of a fresh tree at widths 1
// and 3. Every ball subgraph that BallPointsKernels hands its callback, at
// fuzzed size limits (Max 0: no cap), equals CSR for CSR the subgraph of
// the fresh tree's policy ball at that radius; at width 1 the callbacks
// arrive in (center, radius) order, and the points at widths 1 and 3 are
// equal.
func FuzzPolicyProfilesMatchPathTree(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(0), uint8(0), uint8(0), []byte{0, 1, 0, 1, 2, 0, 2, 3, 1, 3, 4, 2, 4, 5, 3})
	f.Add(uint8(30), uint8(39), uint8(2), uint8(12), uint8(9),
		[]byte{0, 1, 0, 0, 2, 0, 1, 3, 0, 1, 4, 0, 2, 5, 0, 2, 6, 0, 1, 2, 2, 3, 4, 3, 5, 6, 1, 9, 10, 0, 10, 11, 2, 11, 12, 1})
	f.Fuzz(func(t *testing.T, nRaw, centersRaw, minRaw, maxRaw, srcRaw uint8, data []byte) {
		n := 1 + int(nRaw)%40
		a := annotatedFromBytes(n, data)
		g := a.G
		cums := make([][]int32, n)
		for v := range cums {
			cums[v] = policyCumRef(a, int32(v))
		}

		centers := make([]int32, 1+int(centersRaw)%40)
		for i := range centers {
			centers[i] = int32(i % n)
			if len(data) > 0 {
				centers[i] = int32(int(data[i%len(data)])+i) % int32(n)
			}
		}
		for _, width := range []int{1, 3} {
			for i, p := range NewPolicyEngine(g, a.PathsInto, width).Profiles(centers) {
				if p.Center != centers[i] || !slices.Equal(p.Cum, cums[centers[i]]) {
					t.Fatalf("width %d: profile %d of center %d has sizes %v, path tree %v",
						width, i, p.Center, p.Cum, cums[centers[i]])
				}
			}
		}

		minSize, maxSize := int(minRaw)%10, int(maxRaw)%(n+5)
		cfg := func() Config {
			return Config{MaxSources: int(srcRaw) % (n + 1), MinBallSize: minSize,
				MaxBallSize: maxSize, Rand: rand.New(rand.NewSource(int64(srcRaw)))}
		}
		type ballKey struct {
			center int32
			radius int
		}
		var balls []ballKey // (center, radius) in the order width 1 visits them
		c := cfg()
		for _, center := range Centers(g, &c) {
			for _, h := range BucketRadii(cums[center], minSize, maxSize) {
				balls = append(balls, ballKey{center, h})
			}
		}
		var next atomic.Int64
		run := func(width int) []stats.Point {
			return NewPolicyEngine(g, a.PathsInto, width).BallPointsKernels(cfg(), int64(srcRaw),
				func(sub *graph.Graph, radius int, rng *rand.Rand, _ *Kernels) (float64, bool) {
					if width == 1 {
						k := int(next.Add(1)) - 1
						if k >= len(balls) {
							t.Fatalf("ball %d at radius %d beyond the %d selected", k, radius, len(balls))
						}
						bk := balls[k]
						want := a.PathsInto(nil, bk.center).Ball(bk.radius).Subgraph()
						if radius != bk.radius || !sameCSR(sub, want) {
							t.Fatalf("ball %d: radius %d with %d nodes/%d edges, want center %d radius %d with %d/%d",
								k, radius, sub.NumNodes(), sub.NumEdges(), bk.center, bk.radius, want.NumNodes(), want.NumEdges())
						}
					}
					return fingerprintY(sub, rng), true
				})
		}
		pts := run(1)
		if int(next.Load()) != len(balls) {
			t.Fatalf("width 1 evaluated %d balls, want %d", next.Load(), len(balls))
		}
		if par := run(3); !reflect.DeepEqual(pts, par) {
			t.Fatalf("width 3 points %v differ from width 1 %v", par, pts)
		}
	})
}

// raceAnnotated annotates engineTestGraph's edges: mostly the lower id as
// the provider, with some peers, siblings and reversed provider links.
func raceAnnotated() *policy.Annotated {
	a := policy.NewAnnotated(engineTestGraph())
	r := rand.New(rand.NewSource(7))
	for _, e := range a.G.Edges() {
		switch x := r.Intn(10); {
		case x < 6:
			a.SetProviderCustomer(e.U, e.V)
		case x < 8:
			a.SetPeer(e.U, e.V)
		case x < 9:
			a.SetSibling(e.U, e.V)
		default:
			a.SetProviderCustomer(e.V, e.U)
		}
	}
	return a
}

// policyCurves runs the two curves the suite draws on a policy engine, in
// their kernel shapes: a cut per ball on the bundle's partition workspace
// (resilience) and a fingerprint per ball (standing in for distortion),
// both skipping balls below 3 nodes.
func policyCurves(e *Engine, seed int64) (cuts, prints []stats.Point) {
	cfg := func() Config {
		return Config{MaxSources: 48, MinBallSize: 3, MaxBallSize: 200,
			Rand: rand.New(rand.NewSource(seed))}
	}
	cuts = e.BallPointsKernels(cfg(), seed+100,
		func(sub *graph.Graph, _ int, rng *rand.Rand, k *Kernels) (float64, bool) {
			return float64(partition.CutSizeWith(k.Part, sub, rng)), true
		})
	prints = e.BallPointsKernels(cfg(), 0,
		func(sub *graph.Graph, _ int, rng *rand.Rand, _ *Kernels) (float64, bool) {
			return fingerprintY(sub, rng), true
		})
	return cuts, prints
}

// TestPolicyEngineRaceShort races a P=4 policy engine under the race
// detector: Profiles calls over overlapping random center sets against
// both policy curves over centers that overlap them and each other, so the
// calls claim and wait on the same profiles, build and read the same ball
// subgraphs, and cut them on leased bundles. Every profile must equal a
// fresh path tree's sizes, and every curve the same curve on a P=1 engine.
func TestPolicyEngineRaceShort(t *testing.T) {
	a := raceAnnotated()
	n := a.G.NumNodes()
	want := make([][]int32, n)
	for v := range want {
		want[v] = policyCumRef(a, int32(v))
	}
	const seeds = 3
	wantCuts := make([][]stats.Point, seeds)
	wantPrints := make([][]stats.Point, seeds)
	for s := range wantCuts {
		wantCuts[s], wantPrints[s] = policyCurves(NewPolicyEngine(a.G, a.PathsInto, 1), int64(s))
		if len(wantCuts[s]) == 0 {
			t.Fatalf("seed %d: the sequential engine drew no policy balls", s)
		}
	}

	e := NewPolicyEngine(a.G, a.PathsInto, 4)
	r := rand.New(rand.NewSource(55))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		centers := make([]int32, 96) // overlaps heavily, repeats included
		for j := range centers {
			centers[j] = int32(r.Intn(n))
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j, p := range e.Profiles(centers) {
				if !reflect.DeepEqual(p.Cum, want[centers[j]]) {
					t.Errorf("center %d: concurrent profile differs from the path tree's sizes", centers[j])
					return
				}
			}
		}()
		go func(seed int64) {
			defer wg.Done()
			cuts, prints := policyCurves(e, seed)
			if !reflect.DeepEqual(cuts, wantCuts[seed]) || !reflect.DeepEqual(prints, wantPrints[seed]) {
				t.Errorf("seed %d: concurrent policy curves differ from the P=1 engine's", seed)
			}
		}(int64(i % seeds))
	}
	wg.Wait()
}
