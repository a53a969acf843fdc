package ball

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

func engineTestGraph() *graph.Graph {
	r := rand.New(rand.NewSource(42))
	n := 400
	b := graph.NewStreamBuilder(n)
	for i := 0; i < 3*n; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Graph()
}

func TestProfileMatchesBFS(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	for src := int32(0); src < 30; src++ {
		p := e.Profile(src)
		dist, order := g.BFS(src)
		if p.Center != src || len(p.Order) != len(order) {
			t.Fatalf("src %d: profile covers %d nodes, want %d", src, len(p.Order), len(order))
		}
		ecc := int(dist[order[len(order)-1]])
		if p.Eccentricity() != ecc {
			t.Fatalf("src %d: eccentricity %d, want %d", src, p.Eccentricity(), ecc)
		}
		for h := 0; h <= ecc+2; h++ {
			want := 0
			for _, v := range order {
				if int(dist[v]) <= h {
					want++
				}
			}
			if p.Size(h) != want {
				t.Fatalf("src %d: ball size at h=%d is %d, want %d", src, h, p.Size(h), want)
			}
		}
	}
}

func TestProfileCacheSharesOneBFS(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	p1 := e.Profile(5)
	p2 := e.Profile(5)
	if p1 != p2 {
		t.Fatal("same center computed twice: profile cache missed")
	}
	// Parallel Profiles over overlapping center sets must reuse entries.
	profs := e.Profiles([]int32{3, 5, 7})
	if profs[1] != p1 {
		t.Fatal("Profiles did not reuse the cached profile")
	}
}

func TestBallSubgraphMatchesSubgraph(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	p := e.Profile(0)
	for h := 1; h <= p.Eccentricity(); h++ {
		got := e.BallSubgraph(p, h)
		want := g.Subgraph(p.BallAt(h))
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("h=%d: got %d nodes/%d edges, want %d/%d", h,
				got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		if e.BallSubgraph(p, h) != got {
			t.Fatalf("h=%d: ball subgraph not cached", h)
		}
	}
}

// ballPointsAt runs one deterministic-but-RNG-consuming BallPoints pass at
// the given parallelism.
func ballPointsAt(g *graph.Graph, parallelism int) []stats.Point {
	e := NewEngine(g, parallelism)
	cfg := Config{MaxSources: 24, MaxBallSize: 300, MinBallSize: 2,
		Rand: rand.New(rand.NewSource(1))}
	return e.BallPoints(cfg, 77, func(sub *graph.Graph, rng *rand.Rand) (float64, bool) {
		// Consume the per-center RNG so scheduling bugs would show up.
		return float64(sub.NumEdges()) + float64(rng.Intn(3)), true
	})
}

func TestBallPointsParallelMatchesSequential(t *testing.T) {
	g := engineTestGraph()
	seq := ballPointsAt(g, 1)
	if len(seq) == 0 {
		t.Fatal("no points produced")
	}
	for _, workers := range []int{2, 4, 8} {
		par := ballPointsAt(g, workers)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallelism %d: points differ from sequential", workers)
		}
	}
}

func TestVisitMatchesProfiles(t *testing.T) {
	// Visit (the legacy sequential walk) and the engine must agree on every
	// grown ball.
	g := engineTestGraph()
	e := NewEngine(g, 1)
	cfg := Config{MaxSources: 10, MaxBallSize: 250, Rand: rand.New(rand.NewSource(3))}
	type key struct {
		center int32
		radius int
	}
	sizes := map[key]int{}
	Visit(g, cfg, func(b Ball) {
		sizes[key{b.Center, b.Radius}] = len(b.Nodes)
	})
	if len(sizes) == 0 {
		t.Fatal("no balls visited")
	}
	for k, sz := range sizes {
		if got := e.Profile(k.center).Size(k.radius); got != sz {
			t.Fatalf("ball (%d, %d): Visit saw %d nodes, profile says %d",
				k.center, k.radius, sz, got)
		}
	}
}

// TestEngineInstrumentation: an instrumented engine reports balls grown,
// BFS visits and subgraph builds through the registry, counting cached
// reuse exactly once.
func TestEngineInstrumentation(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	p := e.Profile(5)
	e.Profile(5) // cached: no second BFS
	e.BallSubgraph(p, 1)
	e.BallSubgraph(p, 1) // cached: no second build

	snap := reg.Snapshot()
	if snap.Counters["ball.profiles"] != 1 {
		t.Errorf("profiles = %d, want 1", snap.Counters["ball.profiles"])
	}
	if snap.Counters["ball.bfs_visits"] != int64(len(p.Order)) {
		t.Errorf("bfs_visits = %d, want %d", snap.Counters["ball.bfs_visits"], len(p.Order))
	}
	if snap.Counters["ball.subgraphs"] != 1 {
		t.Errorf("subgraphs = %d, want 1", snap.Counters["ball.subgraphs"])
	}
	gets, allocs := snap.Counters["ball.scratch_gets"], snap.Counters["ball.scratch_allocs"]
	if gets != 2 || allocs < 1 || allocs > gets {
		t.Errorf("scratch gets=%d allocs=%d", gets, allocs)
	}

	// An uninstrumented engine takes the same calls as pure no-ops.
	plain := NewEngine(g, 1)
	plain.BallSubgraph(plain.Profile(5), 1)
}

// checkClosedForm compares a width-1 engine's CumProfiles and Profile sizes
// at every center in centers, radii 0 through one past the eccentricity,
// against want(center, h). CumProfiles runs first, so the bit-parallel
// batches compute its rows rather than reading cached full profiles.
func checkClosedForm(t *testing.T, name string, g *graph.Graph, centers []int32, want func(c int32, h int) int) {
	t.Helper()
	e := NewEngine(g, 1)
	cums := e.CumProfiles(centers)
	for i, c := range centers {
		p := e.Profile(c)
		for h := 0; h <= p.Eccentricity()+1; h++ {
			w := want(c, h)
			if got := p.Size(h); got != w {
				t.Fatalf("%s center %d: Profile size at h=%d is %d, closed form %d", name, c, h, got, w)
			}
			if got := cums[i].Size(h); got != w {
				t.Fatalf("%s center %d: CumProfiles size at h=%d is %d, closed form %d", name, c, h, got, w)
			}
		}
	}
}

// FuzzBallSizesClosedForm checks ball sizes on the canonical graphs, whose
// balls have closed forms, at fuzzed sizes: a Mesh ball holds the cells
// within Manhattan distance h (2h²+2h+1 while the diamond fits), a k-ary
// Tree's root ball (k^(h+1)−1)/(k−1) nodes, and node i of Linear(n)
// min(i,h)+min(n−1−i,h)+1 nodes.
func FuzzBallSizesClosedForm(f *testing.F) {
	f.Add(uint8(9), uint8(9), uint8(4), uint8(4), uint8(1), uint8(4), uint8(20), uint8(7))
	f.Add(uint8(40), uint8(3), uint8(0), uint8(2), uint8(0), uint8(7), uint8(80), uint8(0))
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw, r0Raw, c0Raw, kRaw, depthRaw, nRaw, iRaw uint8) {
		rows, cols := 1+int(rowsRaw)%48, 1+int(colsRaw)%48
		r0, c0 := int(r0Raw)%rows, int(c0Raw)%cols
		mesh := func(r0, c0, h int) int {
			size := 0
			for r := max(0, r0-h); r <= min(rows-1, r0+h); r++ {
				span := h - abs(r-r0)
				size += min(cols-1, c0+span) - max(0, c0-span) + 1
			}
			if r0-h >= 0 && r0+h < rows && c0-h >= 0 && c0+h < cols && size != 2*h*h+2*h+1 {
				t.Fatalf("mesh oracle: fitted diamond of radius %d holds %d cells", h, size)
			}
			return size
		}
		checkClosedForm(t, "mesh", canonical.Mesh(rows, cols),
			[]int32{int32(r0*cols + c0), 0, int32(rows*cols - 1)},
			func(c int32, h int) int { return mesh(int(c)/cols, int(c)%cols, h) })

		k := 2 + int(kRaw)%4
		depth := int(depthRaw) % 7
		checkClosedForm(t, "tree", canonical.Tree(k, depth), []int32{0},
			func(_ int32, h int) int {
				pow := 1
				for d := 0; d <= min(h, depth); d++ {
					pow *= k
				}
				return (pow - 1) / (k - 1)
			})

		n := 1 + int(nRaw)%120
		i := int32(int(iRaw) % n)
		checkClosedForm(t, "linear", canonical.Linear(n), []int32{i, 0, int32(n - 1)},
			func(c int32, h int) int {
				return min(int(c), h) + min(n-1-int(c), h) + 1
			})
	})
}

// TestCumProfilesMatchProfiles checks the batched rows against Profile.Cum
// at every center of three long graphs: a complete ternary tree with a
// 40-node chain hung off one leaf (diameter 52), a 30x30 mesh and
// Linear(500).
func TestCumProfilesMatchProfiles(t *testing.T) {
	tree := canonical.Tree(3, 6)
	n := tree.NumNodes()
	const chain = 40
	b := graph.NewStreamBuilder(n + chain)
	for _, ed := range tree.Edges() {
		b.AddEdge(ed.U, ed.V)
	}
	for v := n; v < n+chain; v++ {
		b.AddEdge(int32(v-1), int32(v)) // node n-1 is a depth-6 leaf
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"tree with a chain", b.Graph()}, {"Mesh(30, 30)", canonical.Mesh(30, 30)}, {"Linear(500)", canonical.Linear(500)}} {
		centers := make([]int32, tc.g.NumNodes())
		for i := range centers {
			centers[i] = int32(i)
		}
		cums := NewEngine(tc.g, 1).CumProfiles(centers)
		ref := NewEngine(tc.g, 1)
		for i, c := range centers {
			if want := ref.Profile(c).Cum; !reflect.DeepEqual(cums[i].Cum, want) {
				t.Fatalf("%s center %d: batched rows %v, profile %v", tc.name, c, cums[i].Cum, want)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestForEachReraisesWorkerPanic: a panic on a worker goroutine reaches the
// caller of forEach as a WorkerPanic carrying the value, after every worker
// has returned.
func TestForEachReraisesWorkerPanic(t *testing.T) {
	e := NewEngine(engineTestGraph(), 4)
	var running atomic.Int64
	var got any
	func() {
		defer func() { got = recover() }()
		e.forEach(100, func(i int) {
			running.Add(1)
			defer running.Add(-1)
			if i == 37 {
				panic("boom")
			}
		})
	}()
	wp, ok := got.(*WorkerPanic)
	if !ok || wp.Value != "boom" || len(wp.Stack) == 0 {
		t.Fatalf("recovered %#v, want a WorkerPanic of \"boom\" with its stack", got)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d workers still running after the panic was re-raised", n)
	}
}

// TestCumProfilesPanicReleasesClaims: when the kernel panics, CumProfiles
// re-raises it with no claimed entry left open in the cache, and a call
// that was waiting on an abandoned entry computes it itself.
func TestCumProfilesPanicReleasesClaims(t *testing.T) {
	g := engineTestGraph()
	n := int32(g.NumNodes())
	e := NewEngine(g, 2)
	centers := make([]int32, 300) // two batches; the second holds the bad center
	for i := range centers {
		centers[i] = int32(i)
	}
	centers[len(centers)-1] = n + 7
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an out-of-range center did not panic")
			}
		}()
		e.CumProfiles(centers)
	}()
	for c, ent := range e.cums {
		select {
		case <-ent.done:
			if ent.c == nil {
				t.Fatalf("center %d: closed entry left in the cache without a profile", c)
			}
		default:
			t.Fatalf("center %d: claimed entry left open after the panic", c)
		}
	}

	// A waiter on an entry whose owner gives it up computes it afresh. The
	// progress stage shows when the waiter has found the entry claimed: it
	// adds its one center to the total, and the retry adds it once more.
	prog := obs.NewProgress()
	e.SetProgress(prog.Register("cum"))
	units := func() int64 { return prog.Snapshot().Stages[0].TotalUnits }
	ent := &cumEntry{done: make(chan struct{})}
	e.mu.Lock()
	e.cums[n-1] = ent
	e.mu.Unlock()
	got := make(chan *CumProfile)
	go func() { got <- e.CumProfiles([]int32{n - 1})[0] }()
	for units() == 0 {
		runtime.Gosched()
	}
	e.abandonCums([]int32{n - 1}, []int{0}, []*cumEntry{ent})
	if c := <-got; c == nil || !reflect.DeepEqual(c.Cum, NewEngine(g, 1).Profile(n-1).Cum) {
		t.Fatalf("waiter on an abandoned entry got %v", c)
	}
	if u := units(); u != 2 {
		t.Fatalf("progress total %d, want 2: the waiter did not retry", u)
	}
}
