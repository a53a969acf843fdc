package ball

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	centers := make([]int32, 30)
	for i := range centers {
		centers[i] = int32(i)
	}
	for i, p := range NewEngine(g, 1).Profiles(centers) {
		src := centers[i]
		dist, order := g.BFS(src)
		if p.Center != src {
			t.Fatalf("profile %d is of center %d, want %d", i, p.Center, src)
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

// TestProfileCacheSharesOneBFS: each center's sizes come from one kernel
// pass, shared by later calls, by overlapping center sets and by a center
// repeated within one call.
func TestProfileCacheSharesOneBFS(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	p1 := e.Profiles([]int32{5})[0]
	p2 := e.Profiles([]int32{5})[0]
	if p1 != p2 {
		t.Fatal("same center computed twice: profile cache missed")
	}
	profs := e.Profiles([]int32{3, 5, 7, 3})
	if profs[1] != p1 || profs[3] != profs[0] {
		t.Fatal("Profiles did not reuse the cached profile")
	}
	if n := reg.Snapshot().Counters["ball.msbfs_sources"]; n != 3 {
		t.Fatalf("kernel swept %d sources, want 3: centers 5, 3 and 7 once each", n)
	}
}

// TestBallSubgraphMatchesSubgraph: the subgraphs built from one bounded BFS
// equal the subgraphs induced by the reference's full BFS order prefixes,
// at every radius, and a second request reads the cache.
func TestBallSubgraphMatchesSubgraph(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	p := e.Profiles([]int32{0})[0]
	order, _ := scalarProfile(g, 0)
	radii := make([]int, p.Eccentricity())
	for i := range radii {
		radii[i] = i + 1
	}
	k := e.kernels.Get()
	subs := e.ballSubgraphs(p, radii, k)
	for i, h := range radii {
		if want := g.Subgraph(order[:p.Size(h)]); !sameCSR(subs[i], want) {
			t.Fatalf("h=%d: got %d nodes/%d edges, want %d/%d", h,
				subs[i].NumNodes(), subs[i].NumEdges(), want.NumNodes(), want.NumEdges())
		}
	}
	for i, sub := range e.ballSubgraphs(p, radii[1:3], k) {
		if sub != subs[i+1] {
			t.Fatalf("h=%d: ball subgraph not cached", radii[i+1])
		}
	}
}

// ballPointsAt runs one deterministic-but-RNG-consuming BallPointsKernels
// pass at the given parallelism.
func ballPointsAt(g *graph.Graph, parallelism int) []stats.Point {
	e := NewEngine(g, parallelism)
	cfg := Config{MaxSources: 24, MaxBallSize: 300, MinBallSize: 2,
		Rand: rand.New(rand.NewSource(1))}
	return e.BallPointsKernels(cfg, 77, func(sub *graph.Graph, _ int, rng *rand.Rand, _ *Kernels) (float64, bool) {
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
		if got := e.Profiles([]int32{k.center})[0].Size(k.radius); got != sz {
			t.Fatalf("ball (%d, %d): Visit saw %d nodes, profile says %d",
				k.center, k.radius, sz, got)
		}
	}
}

// TestEngineInstrumentation: an instrumented engine reports kernel passes,
// bounded BFS passes, their visits and subgraph builds through the
// registry, counting cached reuse exactly once, and counts every lease of
// its one kernel pool: the kernel pass leases one bundle, and one lease
// then serves both subgraph requests.
func TestEngineInstrumentation(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(g, 1)
	reg := obs.NewRegistry()
	e.Instrument(reg)

	p := e.Profiles([]int32{5})[0]
	e.Profiles([]int32{5}) // cached: no second kernel pass
	k := e.kernels.Get()
	e.ballSubgraphs(p, []int{1, 2}, k) // one BFS bounded at radius 2
	e.ballSubgraphs(p, []int{1, 2}, k) // cached: no second BFS or build
	e.kernels.Put(k)

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"ball.msbfs_batches": 1, "ball.msbfs_sources": 1,
		"ball.profiles": 1, "ball.bfs_visits": int64(p.Size(2)), "ball.subgraphs": 2,
		"ball.kernel_gets": 2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// The pool may hand the kernel pass's bundle back to the lease or
	// build another (sync.Pool keeps no promise), never more than one each.
	if allocs := snap.Counters["ball.kernel_allocs"]; allocs < 1 || allocs > 2 {
		t.Errorf("kernel allocs = %d, want 1 or 2", allocs)
	}
	for _, gone := range []string{"ball.scratch_gets", "ball.scratch_allocs", "ball.msbfs_gets", "ball.msbfs_allocs"} {
		if _, ok := snap.Counters[gone]; ok {
			t.Errorf("%s registered: the engine leases from one pool", gone)
		}
	}

	// An uninstrumented engine takes the same calls as pure no-ops.
	plain := NewEngine(g, 1)
	plain.ballSubgraphs(plain.Profiles([]int32{5})[0], []int{1}, plain.kernels.Get())
}

// checkClosedForm compares a width-1 engine's profile sizes at every center
// in centers, radii 0 through one past the eccentricity, and the node count
// of its ball subgraph at every radius up to the eccentricity, against
// want(center, h).
func checkClosedForm(t *testing.T, name string, g *graph.Graph, centers []int32, want func(c int32, h int) int) {
	t.Helper()
	e := NewEngine(g, 1)
	for _, p := range e.Profiles(centers) {
		var radii []int
		for h := 0; h <= p.Eccentricity()+1; h++ {
			if got, w := p.Size(h), want(p.Center, h); got != w {
				t.Fatalf("%s center %d: profile size at h=%d is %d, closed form %d", name, p.Center, h, got, w)
			}
			if h <= p.Eccentricity() {
				radii = append(radii, h)
			}
		}
		for i, sub := range e.ballSubgraphs(p, radii, e.kernels.Get()) {
			if got, w := sub.NumNodes(), want(p.Center, radii[i]); got != w {
				t.Fatalf("%s center %d: ball subgraph at h=%d holds %d nodes, closed form %d", name, p.Center, radii[i], got, w)
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

// FuzzProfilesMatchBFS checks the engine against the scalar full-profile
// route on raw-byte graphs of up to 64 nodes, isolated nodes and several
// components included. Profiles of 1–80 centers, repeats included, hold
// the reference BFS level counts at widths 1 and 3. Every ball subgraph
// that BallPointsKernels hands its callback, at fuzzed size limits (Max 0:
// no cap), equals CSR for CSR the subgraph induced by the reference's full
// BFS order prefix at that radius; at width 1 the callbacks arrive in
// (center, radius) order, and the points at widths 1 and 3 are equal.
func FuzzProfilesMatchBFS(f *testing.F) {
	f.Add(uint8(6), uint8(5), uint8(0), uint8(0), uint8(0), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5})
	f.Add(uint8(40), uint8(79), uint8(2), uint8(20), uint8(9), []byte{0, 1, 1, 2, 2, 0, 4, 5, 5, 6, 6, 7, 9, 10, 10, 11, 11, 12, 12, 13})
	f.Fuzz(func(t *testing.T, nRaw, centersRaw, minRaw, maxRaw, srcRaw uint8, data []byte) {
		n := 1 + int(nRaw)%64
		b := graph.NewStreamBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(int32(data[i])%int32(n), int32(data[i+1])%int32(n))
		}
		g := b.Graph()
		orders := make([][]int32, n)
		cums := make([][]int32, n)
		for v := range orders {
			orders[v], cums[v] = scalarProfile(g, int32(v))
		}

		centers := make([]int32, 1+int(centersRaw)%80)
		for i := range centers {
			centers[i] = int32(i % n)
			if len(data) > 0 {
				centers[i] = int32(int(data[i%len(data)])+i) % int32(n)
			}
		}
		for _, width := range []int{1, 3} {
			for i, p := range NewEngine(g, width).Profiles(centers) {
				if p.Center != centers[i] || !slices.Equal(p.Cum, cums[centers[i]]) {
					t.Fatalf("width %d: profile %d of center %d has sizes %v, scalar %v",
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
			return NewEngine(g, width).BallPointsKernels(cfg(), int64(srcRaw),
				func(sub *graph.Graph, radius int, rng *rand.Rand, _ *Kernels) (float64, bool) {
					if width == 1 {
						k := int(next.Add(1)) - 1
						if k >= len(balls) {
							t.Fatalf("ball %d at radius %d beyond the %d selected", k, radius, len(balls))
						}
						bk := balls[k]
						want := g.Subgraph(orders[bk.center][:cums[bk.center][bk.radius]])
						if radius != bk.radius || !sameCSR(sub, want) {
							t.Fatalf("ball %d: radius %d with %d nodes, want center %d radius %d with %d nodes",
								k, radius, sub.NumNodes(), bk.center, bk.radius, want.NumNodes())
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

// TestCumProfilesMatchProfiles checks the batched sizes against the
// scalar reference's level counts at every center of three long graphs: a
// complete ternary tree with a 40-node chain hung off one leaf (diameter
// 52), a 30x30 mesh and Linear(500).
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
		profs := NewEngine(tc.g, 1).Profiles(centers)
		for i, c := range centers {
			if _, want := scalarProfile(tc.g, c); !reflect.DeepEqual(profs[i].Cum, want) {
				t.Fatalf("%s center %d: batched sizes %v, scalar %v", tc.name, c, profs[i].Cum, want)
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

// TestCumProfilesPanicReleasesClaims: when the kernel panics, Profiles
// re-raises it with no claimed profile left open in the cache, and a call
// that was waiting on an abandoned profile computes it itself.
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
		e.Profiles(centers)
	}()
	for c, p := range e.profiles {
		select {
		case <-p.done:
			if p.Cum == nil {
				t.Fatalf("center %d: closed profile left in the cache without sizes", c)
			}
		default:
			t.Fatalf("center %d: claimed profile left open after the panic", c)
		}
	}

	// A waiter on a profile whose owner gives it up computes it afresh. The
	// progress stage shows when the waiter has found the profile claimed: it
	// adds its one center to the total, and the retry adds it once more.
	prog := obs.NewProgress()
	e.SetProgress(prog.Register("profiles"))
	units := func() int64 { return prog.Snapshot().Stages[0].TotalUnits }
	claimed := &Profile{Center: n - 1, done: make(chan struct{})}
	e.mu.Lock()
	e.profiles[n-1] = claimed
	e.mu.Unlock()
	got := make(chan *Profile)
	go func() { got <- e.Profiles([]int32{n - 1})[0] }()
	for units() == 0 {
		runtime.Gosched()
	}
	e.abandon([]*Profile{claimed})
	if _, want := scalarProfile(g, n-1); !reflect.DeepEqual((<-got).Cum, want) {
		t.Fatal("waiter on an abandoned profile did not compute its sizes")
	}
	if u := units(); u != 2 {
		t.Fatalf("progress total %d, want 2: the waiter did not retry", u)
	}
}
