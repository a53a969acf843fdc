package ball

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/partition"
	"topocmp/internal/stats"
)

// Engine grows balls for one graph over a reusable worker pool. It keeps one
// Profile per center, shared by every metric and every concurrent stage
// that asks for the center: the ball size at every radius, which Profiles
// computes through the bit-parallel MSBFS kernel, up to
// graph.MSBFSMaxWidth centers per CSR pass, and the induced subgraphs of
// the balls the curves evaluate, which BallPointsKernels builds from one
// bounded BFS per center and caches per (center, radius). Per-worker BFS
// and subgraph scratch (epoch-stamped arrays and reused queues) keeps
// steady-state ball growth allocation-free. The engine is the only ball
// walk: every ball metric grows its balls here, a one-shot caller on a
// throwaway engine of width 1.
//
// Determinism contract: results are assembled in center order and every
// per-center RNG is derived from seed+centerIndex, so the output is
// bit-identical at every parallelism, including the sequential pool of
// width 1.
type Engine struct {
	g        *graph.Graph
	parallel int // worker-pool width, fixed by NewEngine

	scratch *Pool[*workerScratch]
	kernels *Pool[*Kernels]
	msbfs   *Pool[*graph.MSBFSScratch]

	mu       sync.Mutex
	profiles map[int32]*Profile

	// Resolved metric handles (nil until Instrument): each event on the
	// ball hot path costs at most one atomic add, and nothing at all when
	// uninstrumented beyond a nil check. Pool traffic (gets/allocs per
	// scratch family) is carried by the Pool leases themselves.
	mProfiles       *obs.Counter // bounded BFS passes run to build ball subgraphs
	mBFSVisits      *obs.Counter // nodes visited across those passes
	mSubgraphs      *obs.Counter // induced ball subgraphs materialized
	mMSBFSBatches   *obs.Counter // bit-parallel distance batches run
	mMSBFSSources   *obs.Counter // sources swept across those batches
	mMSBFSWidth     *obs.Gauge   // batch width the last wide sweep chose
	mBrandesBatches *obs.Counter // bit-parallel Brandes batches run by kernel consumers

	// prog, when set, receives balls-done/total work counters so a live
	// /debug/progress can turn the suite's ball traffic into a completion
	// fraction. Nil (the default) costs one nil check per profile.
	prog *obs.ProgressStage
}

// Kernels bundles one worker's reusable solver scratch: a multilevel-
// partition workspace, a BFS scratch and the bit-parallel Brandes strips.
// The engine pools one bundle per worker and hands it to BallPointsKernels
// callbacks, so the expensive per-ball kernels (resilience's balanced
// bisection, distortion's betweenness election) run allocation-free in
// steady state. Kernel state never influences results — workspace-backed
// solvers are bit-identical to fresh ones — so pooling is invisible to the
// determinism contract.
type Kernels struct {
	Part    *partition.Workspace
	BFS     *graph.BFSScratch
	Brandes *graph.BrandesScratch

	eng *Engine // counter backref; nil for bundles built outside an engine
}

// CountBrandes records kernel-consumer Brandes traffic, the bit-parallel
// batches run, under the engine's ball.* namespace. Safe on bundles built
// outside an engine.
func (k *Kernels) CountBrandes(batches int64) {
	if k.eng == nil {
		return
	}
	k.eng.mBrandesBatches.Add(batches)
}

// workerScratch bundles one worker's reusable traversal buffers.
type workerScratch struct {
	bfs *graph.BFSScratch
	sub *graph.SubgraphScratch
}

// NewEngine returns an engine for g with the given worker-pool width;
// parallelism <= 0 uses runtime.NumCPU, 1 runs strictly sequentially.
func NewEngine(g *graph.Graph, parallelism int) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	e := &Engine{g: g, parallel: parallelism, profiles: map[int32]*Profile{}}
	e.scratch = NewPool(func() *workerScratch {
		return &workerScratch{bfs: graph.NewBFSScratch(), sub: graph.NewSubgraphScratch()}
	})
	e.kernels = NewPool(func() *Kernels {
		return &Kernels{Part: partition.NewWorkspace(), BFS: graph.NewBFSScratch(),
			Brandes: graph.NewBrandesScratch(), eng: e}
	})
	e.msbfs = NewPool(graph.NewMSBFSScratch)
	return e
}

// Instrument resolves the engine's counters from the registry (under the
// ball.* namespace: profiles and bfs_visits for the bounded BFS passes that
// build ball subgraphs, subgraphs; scratch_gets/scratch_allocs,
// kernel_gets/kernel_allocs, msbfs_gets/msbfs_allocs for the
// leased-workspace pools — reuse is gets minus allocs; msbfs_batches/
// msbfs_sources/msbfs_width for the bit-parallel distance kernel's traffic,
// and brandes_batches for distortion's center elections). Call it before
// the first ball grows; a nil registry leaves the engine uninstrumented.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.mProfiles = reg.Counter("ball.profiles")
	e.mBFSVisits = reg.Counter("ball.bfs_visits")
	e.mSubgraphs = reg.Counter("ball.subgraphs")
	e.scratch.Instrument(reg.Counter("ball.scratch_gets"), reg.Counter("ball.scratch_allocs"))
	e.kernels.Instrument(reg.Counter("ball.kernel_gets"), reg.Counter("ball.kernel_allocs"))
	e.msbfs.Instrument(reg.Counter("ball.msbfs_gets"), reg.Counter("ball.msbfs_allocs"))
	e.mMSBFSBatches = reg.Counter("ball.msbfs_batches")
	e.mMSBFSSources = reg.Counter("ball.msbfs_sources")
	e.mMSBFSWidth = reg.Gauge("ball.msbfs_width")
	e.mBrandesBatches = reg.Counter("ball.brandes_batches")
}

// SetProgress attaches a live progress stage: every Profiles
// request adds its center count to the stage's work total and one done
// unit per center completed, so the stage's fraction tracks the suite's
// ball traffic in flight. Cache hits count as completed work too — each
// call contributes matching total and done units, so the fraction is
// monotone and ends at 1. A nil stage (the default) disables the counters.
// Progress never influences results.
func (e *Engine) SetProgress(st *obs.ProgressStage) { e.prog = st }

// Graph returns the graph the engine grows balls on.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Profile is the engine's record of one center: the ball size at every
// radius and the induced subgraphs of the balls built around it so far.
type Profile struct {
	Center int32
	// Cum[h] is the ball size at radius h; len(Cum) == eccentricity+1.
	// Shared storage — do not modify.
	Cum []int32

	done chan struct{} // closed once Cum is filled, or with Cum nil when given up

	mu   sync.Mutex
	subs []*subEntry // ball subgraphs by radius, built at most once each
}

type subEntry struct {
	once sync.Once
	g    *graph.Graph
}

// Eccentricity returns the center's hop radius within its component.
func (p *Profile) Eccentricity() int { return len(p.Cum) - 1 }

// Size returns |ball(Center, h)|, saturating beyond the eccentricity.
func (p *Profile) Size(h int) int {
	if h >= len(p.Cum) {
		h = len(p.Cum) - 1
	}
	return int(p.Cum[h])
}

// Profiles returns the centers' profiles in center order. The misses run
// through the bit-parallel MSBFS kernel in multi-word batches of up to
// graph.MSBFSMaxWidth sources (one CSR sweep per level, level counts only,
// no distance matrix), fanned over the worker pool. Level counts are
// integers, so the batch width is invisible in the results.
//
// The first call that misses a center claims its profile; a concurrent call
// that finds it claimed waits for it. A panic in the kernel reaches the
// caller after the other workers stop. The profiles this call claimed but
// did not fill leave the cache first, so a concurrent call waiting on them
// computes them itself.
func (e *Engine) Profiles(centers []int32) []*Profile {
	out := make([]*Profile, len(centers))
	var mine []*Profile // claimed by this call, in first-claim order
	var theirs []int    // indices of profiles claimed before this call reached them
	e.mu.Lock()
	for i, c := range centers {
		p := e.profiles[c]
		if p == nil {
			p = &Profile{Center: c, done: make(chan struct{})}
			e.profiles[c] = p
			mine = append(mine, p)
		} else {
			theirs = append(theirs, i)
		}
		out[i] = p
	}
	e.mu.Unlock()
	// Work units for the live progress fraction: centers claimed elsewhere
	// complete instantly; "mine" completes as the kernels run.
	e.prog.AddTotal(int64(len(centers)))
	e.prog.Add(int64(len(centers) - len(mine)))
	if len(mine) > 0 {
		e.fill(mine)
	}
	// Profiles claimed by a concurrent call (or earlier in this one): their
	// owner always completes its batches before waiting on anyone else, so
	// this cannot cycle. A profile that comes back empty was given up by an
	// owner that panicked.
	var lost []int
	for _, i := range theirs {
		<-out[i].done
		if out[i].Cum == nil {
			lost = append(lost, i)
		}
	}
	if len(lost) > 0 {
		again := make([]int32, len(lost))
		for j, i := range lost {
			again[j] = centers[i]
		}
		for j, p := range e.Profiles(again) {
			out[lost[j]] = p
		}
	}
	return out
}

// fill computes the claimed profiles' sizes and closes each as it fills
// it. If the kernel panics, the profiles it did not fill are deleted from
// the cache and closed empty as the panic unwinds.
func (e *Engine) fill(claimed []*Profile) {
	filled := false
	defer func() {
		if !filled {
			e.abandon(claimed)
		}
	}()
	width := batchWidth(len(claimed), e.parallel)
	e.mMSBFSWidth.Set(int64(width))
	batches := (len(claimed) + width - 1) / width
	e.forEach(batches, func(b int) {
		batch := claimed[b*width : min((b+1)*width, len(claimed))]
		sources := make([]int32, len(batch))
		for j, p := range batch {
			sources[j] = p.Center
		}
		ms := e.msbfs.Get()
		ms.RunLevels(e.g, sources)
		for j, p := range batch {
			levels := ms.LevelCounts(j)
			cum := make([]int32, len(levels))
			run := int32(0)
			for h, cnt := range levels {
				run += cnt
				cum[h] = run
			}
			p.Cum = cum
			close(p.done)
		}
		e.msbfs.Put(ms)
		e.mMSBFSBatches.Add(1)
		e.mMSBFSSources.Add(int64(len(batch)))
		e.prog.Add(int64(len(batch)))
	})
	filled = true
}

// abandon deletes the claimed profiles that were not filled from the cache
// and closes them empty. Every worker has stopped by then.
func (e *Engine) abandon(claimed []*Profile) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range claimed {
		select {
		case <-p.done:
		default:
			delete(e.profiles, p.Center)
			close(p.done)
		}
	}
}

// batchWidth picks a bit-parallel mask-strip width for pending work items
// spread over parallel workers: as wide as the pending work allows without
// starving the pool, rounded up to whole 64-bit words and clamped to
// [MSBFSWidth, MSBFSMaxWidth].
func batchWidth(pending, parallel int) int {
	if parallel < 1 {
		parallel = 1
	}
	width := (pending + parallel - 1) / parallel
	if width < graph.MSBFSWidth {
		width = graph.MSBFSWidth
	}
	if width > graph.MSBFSMaxWidth {
		width = graph.MSBFSMaxWidth
	}
	words := (width + graph.MSBFSWordBits - 1) / graph.MSBFSWordBits
	return words * graph.MSBFSWordBits
}

// ballSubgraphs returns the induced subgraphs of ball(p.Center, h) for the
// given increasing radii, each built at most once per (center, radius) and
// shared by every metric that asks. The missing ones come from one BFS
// bounded at the largest missing radius: a bounded BFS visits nodes in the
// order a full one does, so its first Cum[h] nodes are the ball of radius h.
func (e *Engine) ballSubgraphs(p *Profile, radii []int) []*graph.Graph {
	if len(radii) == 0 {
		return nil
	}
	ents := make([]*subEntry, len(radii))
	p.mu.Lock()
	for len(p.subs) <= radii[len(radii)-1] {
		p.subs = append(p.subs, &subEntry{})
	}
	for i, h := range radii {
		ents[i] = p.subs[h]
	}
	p.mu.Unlock()
	// Largest radius first, so the first build that runs bounds the BFS
	// at the largest missing radius and the smaller ones read its prefix.
	subs := make([]*graph.Graph, len(radii))
	var ws *workerScratch
	var order []int32
	for i := len(radii) - 1; i >= 0; i-- {
		h := radii[i]
		ents[i].once.Do(func() {
			if ws == nil {
				ws = e.scratch.Get()
				order = ws.bfs.Ball(e.g, p.Center, h)
				e.mProfiles.Add(1)
				e.mBFSVisits.Add(int64(len(order)))
			}
			ents[i].g = ws.sub.Induced(e.g, order[:p.Cum[h]])
			e.mSubgraphs.Add(1)
		})
		subs[i] = ents[i].g
	}
	if ws != nil {
		e.scratch.Put(ws)
	}
	return subs
}

// forEach runs work(i) for i in [0, n) over the worker pool. With a pool of
// width 1 the calls run inline in index order. A panic in work stops the
// other workers from taking new indices and is re-raised here once they
// have returned (see Group).
func (e *Engine) forEach(n int, work func(i int)) {
	if e.parallel <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	var next atomic.Int64
	var grp Group
	for w := 0; w < min(e.parallel, n); w++ {
		grp.Go(func() {
			for !grp.Stopped() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		})
	}
	grp.Wait()
}

// BucketRadii returns, in increasing order, the radii at which a ball-size
// curve evaluates one center, read off the center's cumulative ball sizes
// (cum[h] = |ball(center, h)|, increasing with h): among the radii h >= 1
// whose size lies in [minSize, maxSize] (maxSize <= 0: no cap), one per
// stats.BucketRatio size bucket, the radius whose log size lies nearest the
// bucket's log midpoint, the smaller radius on a tie. The curves average
// their points into the same buckets (stats.Bucketize), so a second ball of
// one center in a bucket only re-weighs a mean that center already feeds;
// a center's cost then follows its number of buckets, which grows with
// log n, instead of its eccentricity.
func BucketRadii(cum []int32, minSize, maxSize int) []int {
	logRatio := math.Log(stats.BucketRatio)
	var radii []int
	bucket, off := 0, 0.0 // the last bucket and its kept radius's distance
	for h := 1; h < len(cum); h++ {
		sz := int(cum[h])
		if maxSize > 0 && sz > maxSize {
			break
		}
		if sz < minSize {
			continue
		}
		b := stats.BucketIndex(float64(sz), stats.BucketRatio)
		d := math.Abs(math.Log(float64(sz)) - (float64(b)+0.5)*logRatio)
		if len(radii) > 0 && b == bucket {
			if d < off {
				radii[len(radii)-1], off = h, d
			}
			continue
		}
		radii = append(radii, h)
		bucket, off = b, d
	}
	return radii
}

// BallPoints evaluates perBall around the sampled centers, fanning centers
// out over the worker pool, at the radii BucketRadii selects from each
// center's cached profile: one ball per center and size bucket, with X the
// ball size and Y from perBall on the ball's induced subgraph, assembled in
// deterministic (center, radius) order. A ball for which perBall reports
// !ok adds no point. perBall runs on worker goroutines and receives a
// per-center RNG seeded seed+centerIndex; it must not retain sub, which is
// shared through the engine's subgraph cache.
func (e *Engine) BallPoints(cfg Config, seed int64, perBall func(sub *graph.Graph, rng *rand.Rand) (y float64, ok bool)) []stats.Point {
	return e.BallPointsKernels(cfg, seed,
		func(sub *graph.Graph, _ int, rng *rand.Rand, _ *Kernels) (float64, bool) {
			return perBall(sub, rng)
		})
}

// BallPointsKernels is BallPoints for kernel-backed metrics: perBall
// additionally receives the ball's radius and a pooled per-worker Kernels
// bundle whose solvers it may use freely for the duration of the call. The
// bundle is checked out once per center and returned to the pool
// afterwards, so consecutive balls (and consecutive centers on the same
// worker) reuse the same workspaces. Kernel contents carry no state between
// balls that affects results, preserving the bit-identical-at-every-
// parallelism contract. The selection reads only the profile's sizes, and
// subgraphs are cached per (center, radius), so curves that share centers
// share the balls they both select.
func (e *Engine) BallPointsKernels(cfg Config, seed int64, perBall func(sub *graph.Graph, radius int, rng *rand.Rand, k *Kernels) (y float64, ok bool)) []stats.Point {
	cfg.defaults()
	centers := Centers(e.g, &cfg)
	profs := e.Profiles(centers)
	perCenter := make([][]stats.Point, len(centers))
	e.forEach(len(centers), func(i int) {
		p := profs[i]
		rng := rand.New(rand.NewSource(seed + int64(i)))
		k := e.kernels.Get()
		defer e.kernels.Put(k)
		radii := BucketRadii(p.Cum, cfg.MinBallSize, cfg.MaxBallSize)
		var pts []stats.Point
		for j, sub := range e.ballSubgraphs(p, radii) {
			if y, ok := perBall(sub, radii[j], rng, k); ok {
				pts = append(pts, stats.Point{X: float64(p.Size(radii[j])), Y: y})
			}
		}
		perCenter[i] = pts
	})
	total := 0
	for _, pts := range perCenter {
		total += len(pts)
	}
	out := make([]stats.Point, 0, total)
	for _, pts := range perCenter {
		out = append(out, pts...)
	}
	return out
}
