package plrg

import (
	"math/rand"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/rng"
)

// uniformFromDegreesMap is FromDegrees(..., UniformRandom) as it ran on the
// map-backed builder: the edge set itself answers whether a link is already
// present. It is the reference for uniformConnect's local seen-set.
func uniformFromDegreesMap(r *rand.Rand, degrees []int) *graph.Graph {
	set := map[graph.Edge]bool{}
	remaining := append([]int(nil), degrees...)
	active := make([]int32, 0, len(degrees))
	for v, d := range remaining {
		if d > 0 {
			active = append(active, int32(v))
		}
	}
	failures := 0
	for len(active) >= 2 && failures < 64 {
		i := r.Intn(len(active))
		j := r.Intn(len(active))
		if i == j {
			continue
		}
		u, v := active[i], active[j]
		e := graph.Edge{U: min(u, v), V: max(u, v)}
		if set[e] {
			failures++
			continue
		}
		failures = 0
		set[e] = true
		remaining[u]--
		remaining[v]--
		if i < j {
			i, j = j, i
			u, v = v, u
		}
		if remaining[u] == 0 {
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		if remaining[v] == 0 {
			active[j] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	edges := make([]graph.Edge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	lc, _ := graph.FromEdges(len(degrees), edges).LargestComponent()
	return lc
}

// TestUniformRandomMatchesMapBuilder runs the streamed uniform reconnection
// and the map-backed reference from one seed each over 48 degree sequences:
// power laws with exponents from 1.6 to 3 (the heavy tails saturate hubs
// and force repeated-link rejections) and flat random degrees. Graphs and
// the RNG position afterwards must agree.
func TestUniformRandomMatchesMapBuilder(t *testing.T) {
	gen := rand.New(rand.NewSource(5))
	for trial := 0; trial < 48; trial++ {
		n := 2 + gen.Intn(1500)
		var degrees []int
		if trial%4 == 3 {
			degrees = make([]int, n)
			for v := range degrees {
				degrees[v] = gen.Intn(6)
			}
		} else {
			beta := 1.6 + 1.4*gen.Float64()
			degrees = rng.PowerLawDegrees(gen, n, beta, n-1)
		}
		seed := gen.Int63()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := FromDegrees(r1, degrees, UniformRandom)
		want := uniformFromDegreesMap(r2, degrees)
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d (n=%d): streamed %d nodes / %d edges, map reference %d / %d",
				trial, n, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("trial %d: RNG streams diverged", trial)
		}
	}
}
