package ball

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/partition"
	"topocmp/internal/stats"
)

// Engine grows balls for one graph over a reusable worker pool. It keeps
// per-worker BFS and subgraph scratch (epoch-stamped arrays and reused
// queues, so steady-state ball growth is allocation-free) and a shared
// ball-profile cache, so every metric that grows balls from the same center
// shares one BFS pass per (graph, center) instead of recomputing it.
// Distance-only metrics take the batched path instead: CumProfiles sweeps
// up to graph.MSBFSMaxWidth centers per CSR pass through the bit-parallel
// MSBFS kernel into a coherent cum-only side cache. The engine is the only
// ball walk: every ball metric grows its balls here, a one-shot caller on a
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
	profiles map[int32]*profileEntry
	cums     map[int32]*cumEntry

	spreadOnce sync.Once
	spread     int

	// Resolved metric handles (nil until Instrument): each event on the
	// ball hot path costs at most one atomic add, and nothing at all when
	// uninstrumented beyond a nil check. Pool traffic (gets/allocs per
	// scratch family) is carried by the Pool leases themselves.
	mProfiles       *obs.Counter // balls grown (one BFS pass each)
	mBFSVisits      *obs.Counter // nodes visited across those passes
	mSubgraphs      *obs.Counter // induced ball subgraphs materialized
	mMSBFSBatches   *obs.Counter // bit-parallel distance batches run
	mMSBFSSources   *obs.Counter // sources swept across those batches
	mMSBFSWidth     *obs.Gauge   // batch width the last wide sweep chose
	mDistScalar     *obs.Counter // centers the spread probe routed to scalar BFS
	mBrandesBatches *obs.Counter // bit-parallel Brandes batches run by kernel consumers
	mBrandesScalar  *obs.Counter // subgraphs the probe kept on scalar Brandes

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

// CountBrandes records kernel-consumer Brandes traffic under the engine's
// ball.* namespace: batches bit-parallel batches run, and scalar subgraphs
// the diameter probe kept on the scalar path. Safe on bundles built outside
// an engine.
func (k *Kernels) CountBrandes(batches, scalar int64) {
	if k.eng == nil {
		return
	}
	k.eng.mBrandesBatches.Add(batches)
	k.eng.mBrandesScalar.Add(scalar)
}

// workerScratch bundles one worker's reusable traversal buffers.
type workerScratch struct {
	bfs *graph.BFSScratch
	sub *graph.SubgraphScratch
}

type profileEntry struct {
	once sync.Once
	p    *Profile
	// pub is p republished for opportunistic readers (the cum-profile path
	// peeks at completed full profiles without entering the once).
	pub atomic.Pointer[Profile]
}

// cumEntry is one center's cum-only profile. Unlike profileEntry's
// sync.Once, completion is a closed channel: batched computation fills many
// entries per kernel run, and late arrivals wait on exactly the entries
// another call claimed.
type cumEntry struct {
	done chan struct{}
	c    *CumProfile
}

// NewEngine returns an engine for g with the given worker-pool width;
// parallelism <= 0 uses runtime.NumCPU, 1 runs strictly sequentially.
func NewEngine(g *graph.Graph, parallelism int) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	e := &Engine{g: g, parallel: parallelism,
		profiles: map[int32]*profileEntry{}, cums: map[int32]*cumEntry{}}
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
// ball.* namespace: profiles, bfs_visits, subgraphs; scratch_gets/
// scratch_allocs, kernel_gets/kernel_allocs, msbfs_gets/msbfs_allocs for
// the leased-workspace pools — reuse is gets minus allocs; msbfs_batches/
// msbfs_sources/msbfs_width for the bit-parallel distance kernel's traffic;
// dist_scalar for the centers the spread probe routed to scalar BFS, and
// brandes_batches/brandes_scalar for distortion's diameter probe). Call it
// before the first ball grows; a nil registry leaves the engine
// uninstrumented.
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
	e.mDistScalar = reg.Counter("ball.dist_scalar")
	e.mBrandesBatches = reg.Counter("ball.brandes_batches")
	e.mBrandesScalar = reg.Counter("ball.brandes_scalar")
}

// SetProgress attaches a live progress stage: every Profiles/CumProfiles
// request adds its center count to the stage's work total and one done
// unit per center completed, so the stage's fraction tracks the suite's
// ball traffic in flight. Cache hits count as completed work too — each
// call contributes matching total and done units, so the fraction is
// monotone and ends at 1. A nil stage (the default) disables the counters.
// Progress never influences results.
func (e *Engine) SetProgress(st *obs.ProgressStage) { e.prog = st }

// Graph returns the graph the engine grows balls on.
func (e *Engine) Graph() *graph.Graph { return e.g }

// distSpread returns the spread probe CumProfiles routes on, computed once
// on first use and cached: the hop distance at the 90th percentile of one
// BFS from node 0, read off the BFS order, which is sorted by distance. The
// BFS is the double sweep's first leg, so the probe never exceeds
// graph.ApproxDiameter. A level sweep rescans a node's adjacency once for
// every distinct distance at which the batch's sources reach it, so its
// cost follows how widely distances spread: a few long access chains set a
// graph's diameter but add little, while a lattice's spread makes the
// batch repeat most of its scans.
func (e *Engine) distSpread() int {
	e.spreadOnce.Do(func() {
		if e.g.NumNodes() == 0 {
			return
		}
		ws := e.scratch.Get()
		order := ws.bfs.BFS(e.g, 0)
		e.spread = int(ws.bfs.Dist(order[(len(order)-1)*9/10]))
		e.scratch.Put(ws)
	})
	return e.spread
}

// Profile is one center's cached ball profile: everything a single BFS pass
// reveals about the balls around the center.
type Profile struct {
	Center int32
	// Order holds the center's component in BFS order, so Order[:Cum[h]]
	// is the ball of radius h. Shared storage — do not modify.
	Order []int32
	// Cum[h] is the ball size at radius h; len(Cum) == eccentricity+1.
	Cum []int32

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

// BallAt returns the members of ball(Center, h) in BFS order. The slice
// shares the profile's storage and must not be modified.
func (p *Profile) BallAt(h int) []int32 { return p.Order[:p.Size(h)] }

// Profile returns the center's ball profile, computing and caching it on
// first use. Safe for concurrent use; duplicate work is suppressed.
func (e *Engine) Profile(center int32) *Profile {
	e.mu.Lock()
	ent := e.profiles[center]
	if ent == nil {
		ent = &profileEntry{}
		e.profiles[center] = ent
	}
	e.mu.Unlock()
	ent.once.Do(func() {
		ws := e.scratch.Get()
		order := ws.bfs.BFS(e.g, center)
		ent.p = &Profile{Center: center, Order: slices.Clone(order), Cum: cumSizes(ws.bfs, order)}
		e.scratch.Put(ws)
		ent.pub.Store(ent.p)
		e.mProfiles.Add(1)
		e.mBFSVisits.Add(int64(len(ent.p.Order)))
	})
	return ent.p
}

// cumSizes turns a finished BFS (order and s's distances) into cumulative
// ball sizes per radius: cum[h] = |ball(center, h)|.
func cumSizes(s *graph.BFSScratch, order []int32) []int32 {
	ecc := int(s.Dist(order[len(order)-1]))
	cum := make([]int32, ecc+1)
	for _, v := range order {
		cum[s.Dist(v)]++
	}
	for h := 1; h <= ecc; h++ {
		cum[h] += cum[h-1]
	}
	return cum
}

// Profiles returns the centers' profiles in center order, fanning the
// missing ones out over the worker pool.
func (e *Engine) Profiles(centers []int32) []*Profile {
	out := make([]*Profile, len(centers))
	e.prog.AddTotal(int64(len(centers)))
	e.forEach(len(centers), func(i int) {
		out[i] = e.Profile(centers[i])
		e.prog.Add(1)
	})
	return out
}

// CumProfile is the order-free slice of a ball profile: the cumulative ball
// sizes per radius, without the Order membership a full Profile carries.
// Ball-size counts are order-independent, so a CumProfile derived from the
// bit-parallel kernel is identical to the Cum of a scalar full profile.
type CumProfile struct {
	Center int32
	// Cum[h] is the ball size at radius h; len(Cum) == eccentricity+1.
	// Shared storage — do not modify.
	Cum []int32
}

// Eccentricity returns the center's hop radius within its component.
func (c *CumProfile) Eccentricity() int { return len(c.Cum) - 1 }

// Size returns |ball(Center, h)|, saturating beyond the eccentricity.
func (c *CumProfile) Size(h int) int {
	if h >= len(c.Cum) {
		h = len(c.Cum) - 1
	}
	return int(c.Cum[h])
}

// MSBFSDiameterCutoff is the hop count past which the bit-parallel sweeps
// lose to one scalar traversal per source: the per-level frontiers thin
// out and the mask strips repeat work every level (the wave-1 benchmarks
// measured ~2.5x regressions on lattices). Each route compares it with its
// own probe. The engine's distance sweeps read the spread probe (see
// distSpread), which lets graphs with a few long chains, such as the
// measured RL graph, batch. Distortion's Brandes election per ball subgraph
// and the hierarchy sweeps' sigma batches read the double-sweep diameter
// (graph.ApproxDiameter); for the sigma batches the diameter also guards
// exactness, since lattice-like graphs are the ones whose binomial path
// counts could leave float64's exact-integer range.
const MSBFSDiameterCutoff = 32

// CumProfiles returns the centers' cum-only profiles in center order. The
// misses run through the bit-parallel MSBFS kernel in multi-word batches of
// up to graph.MSBFSMaxWidth sources (one CSR sweep per batch, counts-only —
// no distance matrix), fanned over the worker pool — the fast path for
// distance-only metrics (expansion, eccentricity, path lengths) that never
// materialize ball membership. Graphs whose spread probe exceeds
// MSBFSDiameterCutoff route to a scalar BFS per center instead; level
// counts are integers either way, so the routing and batch width are
// invisible in the results.
//
// Cache coherence with full profiles: a completed full profile satisfies a
// cum request directly (its Cum is shared, no kernel pass runs), while cum
// entries live in a side cache that Profile never consults — so a cum entry
// can never downgrade or preempt a cached full profile, and a later
// Profile(center) still computes (and caches) the full ordered pass.
//
// A panic in the kernel reaches the caller after the other workers stop.
// The entries this call claimed but did not fill leave the cache first, so
// a concurrent call waiting on them computes them itself.
func (e *Engine) CumProfiles(centers []int32) []*CumProfile {
	out := make([]*CumProfile, len(centers))
	ents := make([]*cumEntry, len(centers))
	var mine, theirs []int // indices this call computes vs. waits on
	e.mu.Lock()
	for i, c := range centers {
		if pe := e.profiles[c]; pe != nil {
			if p := pe.pub.Load(); p != nil {
				out[i] = &CumProfile{Center: c, Cum: p.Cum}
				continue
			}
		}
		ent := e.cums[c]
		if ent == nil {
			ent = &cumEntry{done: make(chan struct{})}
			e.cums[c] = ent
			mine = append(mine, i)
		} else {
			theirs = append(theirs, i)
		}
		ents[i] = ent
	}
	e.mu.Unlock()
	// Work units for the live progress fraction: satisfied-from-cache
	// centers complete instantly; "mine" completes as the kernels run.
	e.prog.AddTotal(int64(len(centers)))
	e.prog.Add(int64(len(centers) - len(mine)))
	if len(mine) > 0 {
		e.fillCums(centers, mine, ents)
	}
	for _, i := range mine {
		out[i] = ents[i].c
	}
	// Entries claimed by a concurrent call: their owner always completes
	// its batches before waiting on anyone else, so this cannot cycle. An
	// entry that comes back empty was given up by an owner that panicked.
	var lost []int
	for _, i := range theirs {
		<-ents[i].done
		if out[i] = ents[i].c; out[i] == nil {
			lost = append(lost, i)
		}
	}
	if len(lost) > 0 {
		again := make([]int32, len(lost))
		for j, i := range lost {
			again[j] = centers[i]
		}
		for j, c := range e.CumProfiles(again) {
			out[lost[j]] = c
		}
	}
	return out
}

// fillCums computes the claimed entries ents[i], i in mine, and closes
// each as it fills it. If the kernel panics, the entries it did not fill
// are deleted from the cache and closed empty as the panic unwinds.
func (e *Engine) fillCums(centers []int32, mine []int, ents []*cumEntry) {
	filled := false
	defer func() {
		if !filled {
			e.abandonCums(centers, mine, ents)
		}
	}()
	if e.distSpread() > MSBFSDiameterCutoff {
		e.forEach(len(mine), func(j int) {
			idx := mine[j]
			ws := e.scratch.Get()
			cum := cumSizes(ws.bfs, ws.bfs.BFS(e.g, centers[idx]))
			e.scratch.Put(ws)
			ent := ents[idx]
			ent.c = &CumProfile{Center: centers[idx], Cum: cum}
			close(ent.done)
			e.prog.Add(1)
		})
		e.mDistScalar.Add(int64(len(mine)))
	} else {
		width := BatchWidth(len(mine), e.parallel)
		e.mMSBFSWidth.Set(int64(width))
		batches := (len(mine) + width - 1) / width
		e.forEach(batches, func(b int) {
			lo := b * width
			hi := lo + width
			if hi > len(mine) {
				hi = len(mine)
			}
			batch := mine[lo:hi]
			sources := make([]int32, len(batch))
			for j, idx := range batch {
				sources[j] = centers[idx]
			}
			ms := e.msbfs.Get()
			ms.RunLevels(e.g, sources)
			for j, idx := range batch {
				levels := ms.LevelCounts(j)
				cum := make([]int32, len(levels))
				run := int32(0)
				for h, cnt := range levels {
					run += cnt
					cum[h] = run
				}
				ent := ents[idx]
				ent.c = &CumProfile{Center: sources[j], Cum: cum}
				close(ent.done)
			}
			e.msbfs.Put(ms)
			e.mMSBFSBatches.Add(1)
			e.mMSBFSSources.Add(int64(len(batch)))
			e.prog.Add(int64(len(batch)))
		})
	}
	filled = true
}

// abandonCums deletes the claimed entries that were not filled from the
// cum cache and closes them empty. Every worker has stopped by then.
func (e *Engine) abandonCums(centers []int32, mine []int, ents []*cumEntry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, i := range mine {
		select {
		case <-ents[i].done:
		default:
			delete(e.cums, centers[i])
			close(ents[i].done)
		}
	}
}

// BatchWidth picks a bit-parallel mask-strip width for pending work items
// spread over parallel workers: as wide as the pending work allows without
// starving the pool, rounded up to whole 64-bit words and clamped to
// [MSBFSWidth, MSBFSMaxWidth]. Shared by the engine's distance sweeps and
// the hierarchy layer's sigma batches so every batched kernel sizes strips
// by the same rule.
func BatchWidth(pending, parallel int) int {
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

// BallSubgraph returns the induced subgraph of ball(p.Center, h), built at
// most once per (center, radius) and shared by every metric that asks.
func (e *Engine) BallSubgraph(p *Profile, h int) *graph.Graph {
	if h > p.Eccentricity() {
		h = p.Eccentricity()
	}
	p.mu.Lock()
	for len(p.subs) <= h {
		p.subs = append(p.subs, &subEntry{})
	}
	ent := p.subs[h]
	p.mu.Unlock()
	ent.once.Do(func() {
		ws := e.scratch.Get()
		ent.g = ws.sub.Induced(e.g, p.BallAt(h))
		e.scratch.Put(ws)
		e.mSubgraphs.Add(1)
	})
	return ent.g
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

// BallPoints grows balls per cfg around the sampled centers, fanning
// centers out over the worker pool, and collects one point per accepted
// ball — X the ball size, Y from perBall on the ball's induced subgraph —
// assembled in deterministic (center, radius) order. perBall runs on worker
// goroutines and receives a per-center RNG seeded seed+centerIndex; it must
// not retain sub, which is shared through the engine's subgraph cache.
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
// parallelism contract.
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
		maxR := p.Eccentricity()
		var pts []stats.Point
		for h := 1; h <= maxR; h++ {
			sz := p.Size(h)
			if cfg.MaxBallSize > 0 && sz > cfg.MaxBallSize {
				break
			}
			if sz < cfg.MinBallSize {
				continue
			}
			sub := e.BallSubgraph(p, h)
			if y, ok := perBall(sub, h, rng, k); ok {
				pts = append(pts, stats.Point{X: float64(sz), Y: y})
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
