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
	"topocmp/internal/policy"
	"topocmp/internal/stats"
)

// Engine grows balls for one graph over a reusable worker pool. It keeps one
// Profile per center, shared by every metric and every concurrent stage
// that asks for the center: the ball size at every radius, and the induced
// subgraphs of the balls the curves evaluate, built at most once per
// (center, radius). A plain engine (NewEngine) grows shortest-path balls:
// Profiles computes the sizes through the bit-parallel MSBFS kernel, up to
// graph.MSBFSMaxWidth centers per CSR pass, and BallPointsKernels builds a
// center's subgraphs from one BFS bounded at the largest missing radius. A
// policy engine (NewPolicyEngine) grows the policy-induced balls of
// Appendix E: Profiles counts one valley-free path tree per center, and a
// center's subgraphs come from one more. Each unit of work (a Profiles
// batch, a curve's center) leases one Kernels bundle, which holds all the
// scratch it uses, so steady-state ball growth is allocation-free. The
// engine is the only ball walk: every ball metric grows its balls here, a
// one-shot caller on a throwaway engine of width 1.
//
// Determinism contract: results are assembled in center order and every
// per-center RNG is derived from seed+centerIndex, so the output is
// bit-identical at every parallelism, including the sequential pool of
// width 1.
type Engine struct {
	g        *graph.Graph
	parallel int // worker-pool width, fixed by NewEngine
	// paths builds a center's valley-free path tree on a policy engine,
	// recycling the tree it is passed; nil on a plain engine.
	paths func(*policy.PathTree, int32) *policy.PathTree
	// levels returns the graph's level graph, built on first call.
	levels func() *graph.LevelGraph

	kernels *Pool[*Kernels]

	mu       sync.Mutex
	profiles map[int32]*Profile

	// Resolved metric handles (nil until Instrument): each event on the
	// ball hot path costs at most one atomic add, and nothing at all when
	// uninstrumented beyond a nil check. Lease traffic is carried by the
	// kernel pool itself.
	mProfiles       *obs.Counter // traversals run to build ball subgraphs
	mBFSVisits      *obs.Counter // nodes visited across the plain engine's bounded BFSes
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

// Kernels bundles the reusable scratch of one unit of engine work: the
// MSBFS strips behind Profiles, the BFS and induced-subgraph scratch or the
// path tree behind ball subgraphs, and the solvers the per-ball metrics use
// (a multilevel-partition workspace, the BFS scratch once the subgraphs are
// built, the bit-parallel Brandes strips). The engine leases one bundle per
// unit of work and hands it to BallPointsKernels callbacks, so the
// expensive per-ball kernels (resilience's balanced bisection, distortion's
// betweenness election) run allocation-free in steady state. Kernel state
// never influences results — workspace-backed solvers are bit-identical to
// fresh ones — so leasing is invisible to the determinism contract.
type Kernels struct {
	Part    *partition.Workspace
	BFS     *graph.BFSScratch
	Brandes *graph.BrandesScratch

	sub   graph.SubgraphScratch
	msbfs graph.MSBFSScratch
	tree  *policy.PathTree

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

// NewEngine returns an engine for g with the given worker-pool width;
// parallelism <= 0 uses runtime.NumCPU, 1 runs strictly sequentially.
func NewEngine(g *graph.Graph, parallelism int) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	e := &Engine{g: g, parallel: parallelism, profiles: map[int32]*Profile{},
		levels: sync.OnceValue(func() *graph.LevelGraph { return graph.NewLevelGraph(g) })}
	e.kernels = NewPool(func() *Kernels {
		return &Kernels{Part: partition.NewWorkspace(), BFS: graph.NewBFSScratch(),
			Brandes: graph.NewBrandesScratch(), eng: e}
	})
	return e
}

// NewPolicyEngine returns an engine for g whose balls are policy-induced
// (Appendix E): a member has policy distance at most h from the center,
// and a member edge lies on a shortest valley-free path from the center to
// a member (policy.PathTree.Ball). paths builds a center's path tree over
// g, recycling the tree it is passed (policy.Annotated.PathsInto or
// policy.RouterOverlay.PathsInto). A center's profile counts its tree's
// policy distances, and its ball subgraphs are read from one more tree, so
// every metric on the engine sees policy balls where a plain engine's sees
// shortest-path ones.
func NewPolicyEngine(g *graph.Graph, paths func(*policy.PathTree, int32) *policy.PathTree, parallelism int) *Engine {
	e := NewEngine(g, parallelism)
	e.paths = paths
	return e
}

// Instrument resolves the engine's counters from the registry (under the
// ball.* namespace: profiles for the traversals that build ball subgraphs,
// bfs_visits for the nodes a plain engine's bounded BFSes visit, subgraphs;
// kernel_gets/kernel_allocs for the Kernels leases — reuse is gets minus
// allocs; msbfs_batches/msbfs_sources/msbfs_width for the bit-parallel
// distance kernel's traffic, and brandes_batches for distortion's center
// elections). Call it before the first ball grows; a nil registry leaves
// the engine uninstrumented.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.mProfiles = reg.Counter("ball.profiles")
	e.mBFSVisits = reg.Counter("ball.bfs_visits")
	e.mSubgraphs = reg.Counter("ball.subgraphs")
	e.kernels.Instrument(reg.Counter("ball.kernel_gets"), reg.Counter("ball.kernel_allocs"))
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

// Profiles returns the centers' profiles in center order. On a plain
// engine the misses run through the bit-parallel MSBFS kernel in
// multi-word batches of up to graph.MSBFSMaxWidth sources (one CSR sweep
// per level, level counts only, no distance matrix); on a policy engine
// each miss builds one path tree. Either way the work fans over the worker
// pool, and the sizes are integer counts, so the batching is invisible in
// the results. A plain engine's first miss builds the graph's
// graph.LevelGraph, the leaf-folded copy the kernel sweeps, and keeps it
// for the engine's life; a policy engine never builds one.
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
	width := 1 // one path tree per center
	var lg *graph.LevelGraph
	if e.paths == nil {
		lg = e.levels()
		width = batchWidth(len(claimed), e.parallel)
		e.mMSBFSWidth.Set(int64(width))
	}
	batches := (len(claimed) + width - 1) / width
	e.forEach(batches, func(b int) {
		batch := claimed[b*width : min((b+1)*width, len(claimed))]
		k := e.kernels.Get()
		if e.paths != nil {
			for _, p := range batch {
				k.tree = e.paths(k.tree, p.Center)
				p.Cum = treeCum(k.tree, e.g.NumNodes())
				close(p.done)
			}
		} else {
			sources := make([]int32, len(batch))
			for j, p := range batch {
				sources[j] = p.Center
			}
			k.msbfs.RunLevels(lg, sources)
			for j, p := range batch {
				p.Cum = cumulative(k.msbfs.LevelCounts(j))
				close(p.done)
			}
			e.mMSBFSBatches.Add(1)
			e.mMSBFSSources.Add(int64(len(batch)))
		}
		e.kernels.Put(k)
		e.prog.Add(int64(len(batch)))
	})
	filled = true
}

// cumulative returns the running sums of per-level node counts: the ball
// size at every radius.
func cumulative(levels []int32) []int32 {
	cum := make([]int32, len(levels))
	run := int32(0)
	for h, cnt := range levels {
		run += cnt
		cum[h] = run
	}
	return cum
}

// treeCum returns the ball size at every radius around a path tree's
// source: the count of nodes at policy distance h or less, up to the
// source's policy eccentricity.
func treeCum(t *policy.PathTree, n int) []int32 {
	var levels []int32
	for v := int32(0); v < int32(n); v++ {
		d := t.Dist(v)
		if d == graph.Unreached {
			continue
		}
		for int(d) >= len(levels) {
			levels = append(levels, 0)
		}
		levels[d]++
	}
	return cumulative(levels)
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
// shared by every metric that asks, on k, the bundle its caller holds. The
// missing ones come from one traversal (grow) that reaches the largest
// missing radius.
func (e *Engine) ballSubgraphs(p *Profile, radii []int, k *Kernels) []*graph.Graph {
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
	// Largest radius first, so the first build that runs bounds the
	// traversal at the largest missing radius and the smaller ones reuse it.
	subs := make([]*graph.Graph, len(radii))
	var build func(h int) *graph.Graph
	for i := len(radii) - 1; i >= 0; i-- {
		h := radii[i]
		ents[i].once.Do(func() {
			if build == nil {
				build = e.grow(p, h, k)
			}
			ents[i].g = build(h)
			e.mSubgraphs.Add(1)
		})
		subs[i] = ents[i].g
	}
	return subs
}

// grow runs one traversal from p's center on k that reaches radius hmax and
// returns the builder of the ball subgraphs of radius at most hmax, valid
// until k's next traversal. A policy engine builds the center's path tree
// and reads each ball from it. A plain engine runs a BFS bounded at hmax,
// which visits nodes in the order a full one does, so its first Cum[h]
// nodes are the ball of radius h.
func (e *Engine) grow(p *Profile, hmax int, k *Kernels) func(h int) *graph.Graph {
	e.mProfiles.Add(1)
	if e.paths != nil {
		k.tree = e.paths(k.tree, p.Center)
		return func(h int) *graph.Graph { return k.tree.Ball(h).Subgraph() }
	}
	order := k.BFS.Ball(e.g, p.Center, hmax)
	e.mBFSVisits.Add(int64(len(order)))
	return func(h int) *graph.Graph { return k.sub.Induced(e.g, order[:p.Cum[h]]) }
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

// BallPointsKernels evaluates perBall around the sampled centers, fanning
// centers out over the worker pool, at the radii BucketRadii selects from
// each center's cached profile: one ball per center and size bucket, with X
// the ball size and Y from perBall on the ball's induced subgraph,
// assembled in deterministic (center, radius) order. A ball for which
// perBall reports !ok adds no point. perBall runs on worker goroutines and
// receives the ball's radius, a per-center RNG seeded seed+centerIndex and
// the worker's leased Kernels bundle, whose solvers it may use freely for
// the duration of the call; it must not retain sub, which is shared
// through the engine's subgraph cache. The bundle is leased once per center
// and builds the center's ball subgraphs before the first call, so
// consecutive balls (and consecutive centers on the same worker) reuse the
// same workspaces. The selection reads only the profile's sizes, and
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
		radii := BucketRadii(p.Cum, cfg.MinBallSize, cfg.MaxBallSize)
		var pts []stats.Point
		for j, sub := range e.ballSubgraphs(p, radii, k) {
			if y, ok := perBall(sub, radii[j], rng, k); ok {
				pts = append(pts, stats.Point{X: float64(p.Size(radii[j])), Y: y})
			}
		}
		e.kernels.Put(k)
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
