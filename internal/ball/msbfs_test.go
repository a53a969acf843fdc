package ball

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

// TestCumProfilesMatchFullProfiles: the batched kernel path must produce
// exactly the level counts of the scalar full-profile reference, in center
// order, with the accessors reading them.
func TestCumProfilesMatchFullProfiles(t *testing.T) {
	g := engineTestGraph()
	centers := make([]int32, 70)
	for i := range centers {
		centers[i] = int32(i * 5)
	}
	for i, p := range NewEngine(g, 1).Profiles(centers) {
		c := centers[i]
		if p.Center != c {
			t.Fatalf("center %d: got %d", c, p.Center)
		}
		_, want := scalarProfile(g, c)
		if !reflect.DeepEqual(p.Cum, want) {
			t.Fatalf("center %d: sizes differ: %v vs %v", c, p.Cum, want)
		}
		if p.Eccentricity() != len(want)-1 || p.Size(2) != int(want[min(2, len(want)-1)]) {
			t.Fatalf("center %d: accessor mismatch", c)
		}
	}
}

// fingerprintY is a ball curve's Y that reads the ball subgraph's
// fingerprint and one draw of the per-center RNG, so a wrong member set or
// an RNG stream out of order shows in the points.
func fingerprintY(sub *graph.Graph, rng *rand.Rand) float64 {
	return float64(sub.Fingerprint()>>24)*4 + float64(rng.Intn(3))
}

// raceCurve is a ball curve of fingerprintY points.
func raceCurve(e *Engine, maxSources int, seed int64) []stats.Point {
	cfg := Config{MaxSources: maxSources, MinBallSize: 2, MaxBallSize: 200,
		Rand: rand.New(rand.NewSource(seed))}
	return e.BallPointsKernels(cfg, seed, func(sub *graph.Graph, _ int, rng *rand.Rand, _ *Kernels) (float64, bool) {
		return fingerprintY(sub, rng), true
	})
}

// leafyTestGraph is a 400-node random graph in which over a quarter of the
// nodes are pendant leaves: about 37% of the ids, drawn at random, each
// hang off a random node of a random core of the rest.
func leafyTestGraph(t *testing.T) *graph.Graph {
	r := rand.New(rand.NewSource(43))
	n := 400
	var core, leaves []int32
	for v := int32(0); v < int32(n); v++ {
		if r.Intn(8) < 3 {
			leaves = append(leaves, v)
		} else {
			core = append(core, v)
		}
	}
	b := graph.NewStreamBuilder(n)
	for i := 0; i < 3*len(core); i++ {
		b.AddEdge(core[r.Intn(len(core))], core[r.Intn(len(core))])
	}
	for _, v := range leaves {
		b.AddEdge(v, core[r.Intn(len(core))])
	}
	g := b.Graph()
	pendant := 0
	for v := int32(0); v < int32(n); v++ {
		if g.Degree(v) == 1 && g.Degree(g.Neighbors(v)[0]) >= 2 {
			pendant++
		}
	}
	if 4*pendant < n {
		t.Fatalf("%d of %d nodes are pendant leaves, want a quarter", pendant, n)
	}
	return g
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// raceGraphs are the graphs the race targets run on: the engine's test
// graph and a leafy one, whose level graph folds over a quarter of the
// nodes and is built lazily by the racing calls.
func raceGraphs(t *testing.T) []namedGraph {
	return []namedGraph{{"random", engineTestGraph()}, {"leafy", leafyTestGraph(t)}}
}

// TestMSBFSRaceShort races the engine's two per-center paths on a P=4
// engine under the race detector: Profiles calls over overlapping random
// center sets against BallPointsKernels curves whose centers overlap them
// and each other, so the calls claim and wait on the same profiles and
// build and read the same ball subgraphs. Every profile must equal the
// scalar reference, and every curve the same curve on a sequential P=1
// engine.
func TestMSBFSRaceShort(t *testing.T) {
	for _, tc := range raceGraphs(t) {
		t.Run(tc.name, func(t *testing.T) { msbfsRace(t, tc.g) })
	}
}

func msbfsRace(t *testing.T, g *graph.Graph) {
	n := g.NumNodes()
	want := make([][]int32, n)
	for v := range want {
		_, want[v] = scalarProfile(g, int32(v))
	}
	const seeds = 3
	curves := make([][]stats.Point, seeds)
	for s := range curves {
		curves[s] = raceCurve(NewEngine(g, 1), 48, int64(s))
	}

	e := NewEngine(g, 4)
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
					t.Errorf("center %d: concurrent profile differs from the scalar reference", centers[j])
					return
				}
			}
		}()
		go func(seed int64) {
			defer wg.Done()
			if got := raceCurve(e, 48, seed); !reflect.DeepEqual(got, curves[seed]) {
				t.Errorf("seed %d: concurrent curve differs from sequential", seed)
			}
		}(int64(i % seeds))
	}
	wg.Wait()
}

// TestWideMSBFSRaceShort is the tier-2 race target for the multi-word
// kernel: on a P=4 engine, Profiles calls over every node, large enough
// that batchWidth picks strips wider than one 64-bit word, race curves
// over every node that wait on those profiles and build ball subgraphs
// from them. Every profile must equal the scalar reference and every curve
// the sequential engine's.
func TestWideMSBFSRaceShort(t *testing.T) {
	for _, tc := range raceGraphs(t) {
		t.Run(tc.name, func(t *testing.T) { wideMSBFSRace(t, tc.g) })
	}
}

func wideMSBFSRace(t *testing.T, g *graph.Graph) {
	n := g.NumNodes()
	want := make([][]int32, n)
	for v := range want {
		_, want[v] = scalarProfile(g, int32(v))
	}
	curve := raceCurve(NewEngine(g, 1), 0, 9)

	e := NewEngine(g, 4)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	centers := make([]int32, n) // pending/parallel = 100 -> two-word strips
	for i := range centers {
		centers[i] = int32(i)
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 2; rep++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j, p := range e.Profiles(centers) {
				if !reflect.DeepEqual(p.Cum, want[centers[j]]) {
					t.Errorf("center %d: wide profile differs from the scalar reference", centers[j])
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if got := raceCurve(e, 0, 9); !reflect.DeepEqual(got, curve) {
				t.Error("racing curve differs from sequential")
			}
		}()
	}
	wg.Wait()
	// Every call asks for every node, so the first to take the lock claims
	// all of them and picks the strip width.
	if w := reg.Gauge("ball.msbfs_width").Value(); w <= 64 {
		t.Fatalf("expected a multi-word batch width, recorded %d", w)
	}
}
