// Package hierarchy implements the paper's measure of hierarchy (§5): the
// link value. A link's traversal set is the set of node pairs whose
// shortest-path traffic crosses the link, each pair weighted by the
// fraction of its equal-cost shortest paths through the link; the link's
// value is the minimum weighted vertex cover of the bipartite graph formed
// by that traversal set, computed with the primal-dual 2-approximation.
//
// The distribution of (normalized) link values is the paper's hierarchy
// signature: strict (Tree, Transit-Stub, Tiers), moderate (AS, RL, PLRG),
// or loose (Mesh, Random, Waxman). The package also computes Figure 5's
// correlation between a link's value and the smaller degree of its
// endpoints.
package hierarchy

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/stats"
)

// Options tunes the computation.
type Options struct {
	// MaxSources caps the pair universe (0 = all nodes): when set, link
	// values are computed over the pairs Q×Q of a uniformly sampled node
	// set Q of this size, and normalized by |Q| instead of |V|. Sampling
	// both endpoints symmetrically preserves the vertex-cover structure
	// (one-sided source sampling would cap every cover at the sample
	// size). The paper bounds this cost the same way, computing RL link
	// values on the core graph and sampling nodes for large balls.
	MaxSources int
	// Rand drives sampling; nil uses a fixed seed.
	Rand *rand.Rand
	// Parallelism caps the source-sweep worker count; 0 uses GOMAXPROCS,
	// 1 runs sequentially. Results are identical at every width.
	Parallelism int
	// Metrics, when non-nil, counts the source sweeps performed
	// (hierarchy.link_value_sweeps / hierarchy.policy_sweeps) and the row
	// provider chosen (hierarchy.sigma_batches / hierarchy.sigma_scalar,
	// width gauge hierarchy.sigma_width). Never affects results.
	Metrics *obs.Registry `json:"-"`

	// force overrides the diameter probe's provider choice. Only the
	// differential tests set it (export_test.go).
	force provider
}

// provider names where a sweep's per-source distance and path-count rows
// come from. The rows are identical either way (path counts are exact
// integers in float64), so the choice only changes speed.
type provider int8

const (
	probed         provider = iota // the diameter probe decides
	scalarProvider                 // one scalar traversal per source
	batchProvider                  // one sigma-carrying MSBFS per mask strip
)

// batched resolves the row provider for g. Low-diameter graphs batch their
// sources through the sigma-carrying MSBFS kernel; the probe (the same
// double-sweep estimate and threshold as ball.CumProfiles) keeps
// lattice-like graphs on scalar traversals, where thin frontiers repeat
// mask work every level and binomial path counts could leave float64's
// exact-integer range.
func (o *Options) batched(g *graph.Graph) bool {
	if o.force != probed {
		return o.force == batchProvider
	}
	ws := sweepPool.Get()
	defer sweepPool.Put(ws)
	return graph.ApproxDiameter(g, ws.bfs) <= ball.MSBFSDiameterCutoff
}

func (o *Options) defaults() {
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
}

// workers resolves the worker count for n source sweeps.
func (o *Options) workers(n int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Result holds per-edge link values.
type Result struct {
	Edges  []graph.Edge
	Values []float64 // raw weighted-vertex-cover values, parallel to Edges
	// N is the normalization base: the node count, or the pair-universe
	// size |Q| when sampling was used.
	N int
	// Nodes is the graph's node count — the population the pair universe
	// was drawn from. Zero in results predating the field (old cache
	// entries are invalidated by the schema bump, but defensive callers
	// treat Nodes == 0 as "no bound available").
	Nodes int
}

// Normalized returns the link values divided by the node count, the
// normalization of Figures 3, 4 and 14.
func (r *Result) Normalized() []float64 {
	out := make([]float64, len(r.Values))
	for i, v := range r.Values {
		out[i] = v / float64(r.N)
	}
	return out
}

// RankDistribution returns the normalized link-value rank distribution:
// X = rank/|E|, Y = value/N, sorted by decreasing value.
//
// When the result records the source population (Nodes > 0), each point
// carries a coarse relative sampling bound: the per-edge value is a sum
// over the N sampled sources, so its relative standard error scales like
// the finite-population-corrected 1/sqrt(N) of a mean over sources —
// StdErr[i] = Y[i]·sqrt((Nodes−N)/((Nodes−1)·N)). Exactly zero for full
// enumeration (N == Nodes), i.e. zero-width bounds.
func (r *Result) RankDistribution() stats.Series {
	s := stats.RankDistribution(r.Normalized())
	s.Name = "linkvalues"
	if r.Nodes > 1 && r.N > 0 {
		fpc := 0.0
		if r.N < r.Nodes {
			fpc = math.Sqrt(float64(r.Nodes-r.N) / (float64(r.Nodes-1) * float64(r.N)))
		}
		s.StdErr = make([]float64, len(s.Points))
		for i, p := range s.Points {
			s.StdErr[i] = p.Y * fpc
		}
	}
	return s
}

// DegreeCorrelation returns the Pearson correlation between each link's
// value and the smaller of its endpoint degrees (Figure 5).
func (r *Result) DegreeCorrelation(g *graph.Graph) float64 {
	return r.DegreeCorrelationDegrees(g.Degrees())
}

// DegreeCorrelationDegrees is DegreeCorrelation over a plain degree slice
// (indexed by node id), so callers holding only a cached degree sequence —
// not the graph itself — can still compute Figure 5.
func (r *Result) DegreeCorrelationDegrees(deg []int) float64 {
	vals := make([]float64, len(r.Edges))
	mins := make([]float64, len(r.Edges))
	for i, e := range r.Edges {
		vals[i] = r.Values[i]
		du, dv := deg[e.U], deg[e.V]
		if dv < du {
			du = dv
		}
		mins[i] = float64(du)
	}
	return stats.Pearson(vals, mins)
}

// pairEntry is one (source, target) pair crossing an edge with the fraction
// of its shortest paths that do so.
type pairEntry struct {
	edge uint32
	u, t int32
	w    float64
}

// coverEntry is one pair entry inside a single edge's group: the edge id is
// implicit in the grouping, so the cover passes stream 16-byte elements
// instead of re-reading it from every entry.
type coverEntry struct {
	u, t int32
	w    float64
}

// coverBucketShift sizes the edgeStream buckets: edge ids are partitioned
// by id>>shift, 32 edges per bucket. Buckets keep the emission's write
// streams few and sequential (cache- and TLB-resident tails) while staying
// small enough that one bucket's entries counting-sort and cover inside L2.
const coverBucketShift = 5

// bucketChunk is the edgeStream arena chunk size in entries (a power of
// two: the emission fast path tests the cursor against the chunk mask).
const bucketChunk = 1024

// edgeStream radix-partitions one worker's pair entries by edge-id bucket as
// they are emitted, so no sweep materializes a linear entry log or a
// full-size counting sort: the sweeps append each entry to its bucket's
// chunk chain (a handful of hot sequential tails instead of one random-write
// arena), and the cover re-sorts one cache-resident bucket at a time into
// per-edge groups.
//
// cur is each bucket's next write index into the data arena. Chunk 0 is a
// reserved sentinel no bucket ever owns, so cur == 0 (empty bucket) and any
// other chunk-aligned value (full tail) both land on the one boundary test
// at the open-coded emission sites — the hot path is three memory
// operations on cache-resident lines.
type edgeStream struct {
	heads []int32 // per bucket: first chunk, -1 when empty
	tails []int32 // per bucket: tail chunk
	cur   []int32 // per bucket: next write index into data
	next  []int32 // per chunk: successor, -1 at the tail
	data  []pairEntry
}

func (es *edgeStream) reset(numEdges int) {
	nb := (numEdges >> coverBucketShift) + 1
	es.heads = growI32(es.heads, nb)
	es.tails = growI32(es.tails, nb)
	es.cur = growI32(es.cur, nb)
	for i := 0; i < nb; i++ {
		es.heads[i] = -1
		es.tails[i] = -1
		es.cur[i] = 0
	}
	// Reserve the sentinel chunk (its contents are never read).
	es.next = append(es.next[:0], -1)
	if cap(es.data) < bucketChunk {
		es.data = make([]pairEntry, bucketChunk, 32*bucketChunk)
	} else {
		es.data = es.data[:bucketChunk]
	}
}

// add appends p to its bucket: the emission of the policy sweeps, whose
// per-entry cost is dominated by the product-space walk. The plain sweep
// open-codes the same fast path.
func (es *edgeStream) add(p pairEntry) {
	b := p.edge >> coverBucketShift
	if c := es.cur[b]; c&(bucketChunk-1) != 0 {
		es.data[c] = p
		es.cur[b] = c + 1
		return
	}
	es.grow(b, p)
}

// grow opens a new tail chunk for bucket b and writes p as its first entry;
// reused arena capacity is left dirty (cur bounds every read).
func (es *edgeStream) grow(b uint32, p pairEntry) {
	ni := int32(len(es.next))
	es.next = append(es.next, -1)
	base := ni * bucketChunk
	need := int(base) + bucketChunk
	if cap(es.data) < need {
		nd := make([]pairEntry, need, max(2*need, 32*bucketChunk))
		copy(nd, es.data)
		es.data = nd
	} else {
		es.data = es.data[:need]
	}
	es.data[base] = p
	if ti := es.tails[b]; ti >= 0 {
		es.next[ti] = ni
	} else {
		es.heads[b] = ni
	}
	es.tails[b] = ni
	es.cur[b] = base + 1
}

// segments appends bucket b's entries to segs as chunk slices, in emission
// order.
func (es *edgeStream) segments(b int, segs [][]pairEntry) [][]pairEntry {
	for ci := es.heads[b]; ci >= 0; ci = es.next[ci] {
		base := ci * bucketChunk
		end := base + bucketChunk
		if ci == es.tails[b] {
			end = es.cur[b]
		}
		segs = append(segs, es.data[base:end])
	}
	return segs
}

// sweepScratch is one link-value worker's traversal workspace — BFS
// scratch, the ancestor-sweep g-value accumulators and level buckets, the
// policy sweeps' per-edge fraction accumulators and the worker's entry
// stream — leased through the unified ball.Pool layer, one bundle per
// worker per call. The float buffers rely on a zero-at-rest invariant
// (every sweep resets what it touched), so a leased bundle behaves exactly
// like a fresh one.
type sweepScratch struct {
	bfs     *graph.BFSScratch
	msbfs   *graph.MSBFSScratch // sigma-batch kernel, allocated on first batched lease
	gval    []float64
	touched []int32
	buckets [][]int32
	localW  []float64 // per-edge fraction accumulators (policy sweeps)
	localE  []uint32  // edge ids touched in localW for the current target
	// Per-source shortest-path-DAG predecessor lists: pred arcs of b are its
	// neighbors one level closer to the source, in adjacency order, with
	// their dense edge ids alongside. Built lazily — a node's adjacency is
	// filtered the first time a target walk reaches it, memoized for the
	// source's remaining targets via pstamp — so with sampled pair universes
	// only the ancestors of sampled targets ever pay an adjacency scan or a
	// (table-read) edge-id lookup.
	pstamp   graph.Stamp
	predLo   []int32 // b's pred arcs are predAdj[predLo[b]:predHi[b]]
	predHi   []int32 // valid only where pstamp has seen b
	predAdj  []int32 // fixed length m per source; predN is the fill cursor
	predEdge []uint32
	predN    int32
	// stream is the worker's entry store. It persists its arena across
	// leases and must not return to the pool until the cover has read it.
	stream *edgeStream
	// Product-space traversal buffers for policy sweeps, reused through
	// policy.ProductCountsInto (reset via porder, so they carry their own
	// zero-at-rest invariant), and a strip's product start states.
	pdist  []int32
	psigma []float64
	porder []int32
	psrc   []int32
}

var sweepPool = ball.NewPool(func() *sweepScratch {
	return &sweepScratch{bfs: graph.NewBFSScratch(), stream: &edgeStream{}}
})

// The sweep workspaces hold the entry streams — hundreds of megabytes on
// the bigger networks — so a few survive collections instead of being
// refaulted in every suite run.
func init() {
	sweepPool.Keep(2)
}

// grownZero returns b with length at least n; freshly grown storage is
// zeroed by make, and surviving storage is zero by the reset invariant.
func grownZero(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// sigmaPlan sizes the batched provider: strip width from the pending
// sources like ball.CumProfiles (never starving the pool), worker count
// capped at the strip count, and the routing counters recorded. Returns
// width 0 for the scalar provider.
func sigmaPlan(opts *Options, numSources, workers int, batched bool) (width, strips, w int) {
	if !batched {
		opts.Metrics.Counter("hierarchy.sigma_scalar").Add(int64(numSources))
		return 0, 0, workers
	}
	width = ball.BatchWidth(numSources, workers)
	strips = (numSources + width - 1) / width
	if workers > strips {
		workers = strips
	}
	if workers < 1 {
		workers = 1
	}
	opts.Metrics.Gauge("hierarchy.sigma_width").Set(int64(width))
	opts.Metrics.Counter("hierarchy.sigma_batches").Add(int64(strips))
	return width, strips, workers
}

// rowProvider yields each source's exact distance and path-count rows, in
// one of two forms picked per graph by the diameter probe. scalar runs one
// traversal for source u and returns its rows; guard, when non-nil, is the
// traversal whose epoch-guarded Dist must gate targets because the rows
// are stale at unreached nodes. strip runs one mask strip on ws.msbfs,
// whose DistRow/SigmaRow then hold the strip's rows in full.
type rowProvider struct {
	scalar func(ws *sweepScratch, u int32) (dist []int32, sigma []float64, guard *graph.BFSScratch)
	strip  func(ws *sweepScratch, strip []int32)
}

// visitFunc sweeps every target of source u into the worker's stream es.
type visitFunc func(ws *sweepScratch, es *edgeStream, u int32,
	dist []int32, sigma []float64, guard *graph.BFSScratch)

// sweep is the one link-value driver. The sorted sources are cut into
// contiguous per-worker blocks — of single sources for the scalar provider,
// of whole mask strips for the batched one — so every source of worker w
// precedes every source of worker w+1, and each worker visits its sources
// in ascending order into its own stream. The streams come back in worker
// order, which is the canonical (u, t) order coverValuesStream relies on;
// release returns their scratches to the pool once they have been read.
// The graph is immutable and every worker owns its leased scratch, so the
// workers share nothing but read-only inputs.
func sweep(opts *Options, sources []int32, numEdges int, batched bool,
	rp rowProvider, visit visitFunc) (streams []*edgeStream, release func()) {

	width, strips, workers := sigmaPlan(opts, len(sources), opts.workers(len(sources)), batched)
	units := len(sources)
	if width > 0 {
		units = strips
	}
	wss := make([]*sweepScratch, workers)
	streams = make([]*edgeStream, workers)
	var wg sync.WaitGroup
	for w := range wss {
		ws := sweepPool.Get()
		wss[w], streams[w] = ws, ws.stream
		ws.stream.reset(numEdges)
		lo, hi := w*units/workers, (w+1)*units/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			if width == 0 {
				for _, u := range sources[lo:hi] {
					dist, sigma, guard := rp.scalar(ws, u)
					visit(ws, ws.stream, u, dist, sigma, guard)
				}
				return
			}
			if ws.msbfs == nil {
				ws.msbfs = graph.NewMSBFSScratch()
			}
			for k := lo; k < hi; k++ {
				strip := sources[k*width : min((k+1)*width, len(sources))]
				rp.strip(ws, strip)
				for j, u := range strip {
					visit(ws, ws.stream, u, ws.msbfs.DistRow(j), ws.msbfs.SigmaRow(j), nil)
				}
			}
		}()
	}
	wg.Wait()
	return streams, func() {
		for _, ws := range wss {
			sweepPool.Put(ws)
		}
	}
}

// sweepPlain runs the shortest-path sweep LinkValues and TraversalSetSizes
// share: per source, every sampled target's ancestor DAG walked in
// ascending target order over the lazy predecessor lists.
func sweepPlain(g *graph.Graph, opts *Options, sources []int32, inQ []bool) ([]*edgeStream, func()) {
	n, m := g.NumNodes(), g.NumEdges()
	off, adj := g.CSR()
	arcIDs := graph.NewEdgeIndex(g).ArcIDs() // shared, read-only across workers
	rp := rowProvider{
		scalar: func(ws *sweepScratch, u int32) ([]int32, []float64, *graph.BFSScratch) {
			ws.bfs.Counts(g, u)
			dist, sigma := ws.bfs.Rows()
			return dist, sigma, ws.bfs
		},
		strip: func(ws *sweepScratch, strip []int32) { ws.msbfs.RunSigma(g, strip) },
	}
	visit := func(ws *sweepScratch, es *edgeStream, u int32, dist []int32, sigma []float64, guard *graph.BFSScratch) {
		ws.gval = grownZero(ws.gval, n)
		ws.beginPreds(n, m)
		fs := newFastSweep(off, adj, arcIDs, dist, sigma, ws)
		for t := int32(0); t < int32(n); t++ {
			if t == u || !inQ[t] {
				continue
			}
			d := dist[t]
			if guard != nil {
				d = guard.Dist(t)
			}
			if d <= 0 || d == graph.Unreached {
				continue
			}
			sweepTargetStream(u, t, int(d), fs, ws, es)
		}
	}
	return sweep(opts, sources, m, opts.batched(g), rp, visit)
}

// LinkValues computes link values under shortest-path routing. Source
// sweeps run concurrently and, on low-diameter graphs, in bit-parallel
// sigma batches — one CSR sweep per mask strip of up to
// graph.MSBFSMaxWidth sources instead of one scalar BFS each. The
// worker-ordered streams make the result independent of scheduling, and
// path counts are exact integers in float64 from either row provider, so
// the values are byte-identical across worker counts and providers.
func LinkValues(g *graph.Graph, opts Options) *Result {
	opts.defaults()
	sources, inQ := sampleSources(g.NumNodes(), opts)
	opts.Metrics.Counter("hierarchy.link_value_sweeps").Add(int64(len(sources)))
	streams, release := sweepPlain(g, &opts, sources, inQ)
	defer release()
	values := coverValuesStream(g.NumEdges(), g.NumNodes(), streams)
	return &Result{Edges: g.Edges(), Values: values, N: len(sources), Nodes: g.NumNodes()}
}

// beginPreds resets the lazy predecessor state for a new source: one epoch
// bump and a cursor reset — no per-node clearing, predLo/predHi are only
// read where pstamp has seen the node. The arc buffers are sized to m up
// front: an undirected edge is a pred arc in at most one direction per
// source (its endpoints' distances differ by at most one), so m bounds a
// source's total pred-arc count and the buffers never reallocate — which
// lets fastSweep hold them as stable slices the hot loops read without
// reloading.
func (ws *sweepScratch) beginPreds(n, m int) {
	ws.pstamp.Begin(n)
	ws.predLo = growI32(ws.predLo, n)
	ws.predHi = growI32(ws.predHi, n)
	ws.predAdj = growI32(ws.predAdj, m)
	if cap(ws.predEdge) < m {
		ws.predEdge = make([]uint32, m)
	} else {
		ws.predEdge = ws.predEdge[:m]
	}
	ws.predN = 0
}

// fastSweep bundles one source's immutable sweep inputs — the graph CSR,
// the arc-id table, the source's distance/path-count rows, and the source's
// pred-arc buffers (stable for the source's lifetime, see beginPreds). The
// walk reads the rows only at the target's ancestors and their neighbours,
// all reached by the source's traversal, so a scalar traversal's rows,
// stale at unreached nodes, serve as well as a sigma strip's full rows.
type fastSweep struct {
	off, adj []int32
	arcIDs   []uint32
	dist     []int32
	sigma    []float64
	predAdj  []int32
	predEdge []uint32
}

func newFastSweep(off, adj []int32, arcIDs []uint32, dist []int32, sigma []float64,
	ws *sweepScratch) *fastSweep {
	return &fastSweep{
		off: off, adj: adj, arcIDs: arcIDs, dist: dist, sigma: sigma,
		predAdj: ws.predAdj, predEdge: ws.predEdge,
	}
}

// buildPreds filters b's adjacency into its predecessor range. The lists
// come out in adjacency order whatever the target order, so the emitted
// entry stream stays canonical. Callers open-code the memoization check —
// `if ws.pstamp.Visit(b) { fs.buildPreds(b, ws) }` — so the per-visit fast
// path (an inlined epoch compare plus two range loads) never pays a call;
// only first touches enter here.
func (fs *fastSweep) buildPreds(b int32, ws *sweepScratch) {
	base := fs.off[b]
	want := fs.dist[b] - 1
	k := ws.predN
	for i, a := range fs.adj[base:fs.off[b+1]] {
		if fs.dist[a] == want {
			fs.predAdj[k] = a
			fs.predEdge[k] = fs.arcIDs[base+int32(i)]
			k++
		}
	}
	ws.predLo[b], ws.predHi[b] = ws.predN, k
	ws.predN = k
}

// sweepTargetStream walks target t's shortest-path ancestor DAG from source
// u over the lazy predecessor lists, computing per-edge path fractions (g
// values) and emitting one pair entry per DAG arc straight into its edge's
// bucket of es. gval/touched/buckets are reused across targets (gval zeroed
// via touched). Pred lists preserve adjacency order, so the per-pair entry
// order is fixed by the graph alone.
//
// When the pair has a unique shortest path (sigma[t] == 1), the ancestor
// DAG is a single chain — every node on it also has path count 1, hence
// exactly one pred — and every fraction is exactly 1*1/1 = 1, so the walk
// degenerates to following single pred links with no g-value bookkeeping.
// Entry order and float values are identical to the general walk's.
func sweepTargetStream(u, t int32, dt int, fs *fastSweep, ws *sweepScratch,
	es *edgeStream) {

	sigma := fs.sigma
	// The stream emission fast path is open-coded (the grow call pushes a
	// method past the inliner's budget). cur never moves during a sweep;
	// data is reloaded after any grow, which may reallocate the arena.
	cur, data := es.cur, es.data
	if sigma[t] == 1 {
		b := t
		for d := dt; d >= 1; d-- {
			if ws.pstamp.Visit(b) {
				fs.buildPreds(b, ws)
			}
			lo := ws.predLo[b]
			e := fs.predEdge[lo]
			bkt := e >> coverBucketShift
			if c := cur[bkt]; c&(bucketChunk-1) != 0 {
				data[c] = pairEntry{edge: e, u: u, t: t, w: 1}
				cur[bkt] = c + 1
			} else {
				es.grow(bkt, pairEntry{edge: e, u: u, t: t, w: 1})
				data = es.data
			}
			b = fs.predAdj[lo]
		}
		return
	}
	for len(ws.buckets) <= dt {
		ws.buckets = append(ws.buckets, nil)
	}
	bs := ws.buckets
	for d := 0; d <= dt; d++ {
		bs[d] = bs[d][:0]
	}
	ws.gval[t] = 1
	ws.touched = append(ws.touched[:0], t)
	bs[dt] = append(bs[dt], t)
	for d := dt; d >= 1; d-- {
		for _, b := range bs[d] {
			gb := ws.gval[b]
			sb := sigma[b]
			if ws.pstamp.Visit(b) {
				fs.buildPreds(b, ws)
			}
			lo, hi := ws.predLo[b], ws.predHi[b]
			for i := lo; i < hi; i++ {
				a := fs.predAdj[i]
				frac := gb * sigma[a] / sb
				e := fs.predEdge[i]
				bkt := e >> coverBucketShift
				if c := cur[bkt]; c&(bucketChunk-1) != 0 {
					data[c] = pairEntry{edge: e, u: u, t: t, w: frac}
					cur[bkt] = c + 1
				} else {
					es.grow(bkt, pairEntry{edge: e, u: u, t: t, w: frac})
					data = es.data
				}
				if ws.gval[a] == 0 {
					ws.touched = append(ws.touched, a)
					if d-1 >= 1 {
						bs[d-1] = append(bs[d-1], a)
					}
				}
				ws.gval[a] += frac
			}
		}
	}
	for _, v := range ws.touched {
		ws.gval[v] = 0
	}
}

// sampleSources returns the pair-universe node set Q and its membership
// mask. The set is returned in ascending node order: the sweeps emit entry
// blocks in source order, and coverValuesStream relies on that order being
// ascending u to reach the canonical (edge, u, t) grouping without a sort.
// (Which nodes are sampled depends only on the Rand stream, not the order.)
func sampleSources(n int, opts Options) ([]int32, []bool) {
	inQ := make([]bool, n)
	if opts.MaxSources <= 0 || opts.MaxSources >= n {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
			inQ[i] = true
		}
		return all, inQ
	}
	perm := opts.Rand.Perm(n)
	out := make([]int32, opts.MaxSources)
	for i := range out {
		out[i] = int32(perm[i])
		inQ[out[i]] = true
	}
	slices.Sort(out)
	return out, inQ
}

// coverValuesStream computes every edge's link value from the workers'
// entry streams: per-node traversal weights W(x,e) (the average pair
// fraction over the pairs containing x), then the primal-dual weighted
// vertex cover per edge.
//
// It walks one bucket at a time, reading the bucket's chunks across the
// streams in worker order. Each stream is (u, t)-ascending and the workers'
// source blocks ascend with worker index, so that walk is (u, t)-ascending
// too; a stable counting sort by edge then lands every group in the
// canonical (edge, u, t) order the order-dependent primal-dual needs, with
// no global sort. Only one bucket's entries are ever copied.
func coverValuesStream(numEdges, numNodes int, streams []*edgeStream) []float64 {
	ws := coverPool.Get()
	defer coverPool.Put(ws)
	ws.ensure(numNodes)
	values := make([]float64, numEdges)
	const be = 1 << coverBucketShift
	var cnt [be + 1]int32
	var segs [][]pairEntry
	for b := 0; b <= numEdges>>coverBucketShift; b++ {
		segs = segs[:0]
		for _, es := range streams {
			segs = es.segments(b, segs)
		}
		if len(segs) == 0 {
			continue
		}
		lo := uint32(b) << coverBucketShift
		cnt = [be + 1]int32{}
		total := 0
		for _, seg := range segs {
			total += len(seg)
			for i := range seg {
				cnt[seg[i].edge-lo+1]++
			}
		}
		for i := 0; i < be; i++ {
			cnt[i+1] += cnt[i]
		}
		sorted := growPairs(ws.sorted, total)
		ws.sorted = sorted
		for _, seg := range segs {
			for i := range seg {
				p := &seg[i]
				c := p.edge - lo
				sorted[cnt[c]] = coverEntry{u: p.u, t: p.t, w: p.w}
				cnt[c]++
			}
		}
		// cnt[c] now ends group c (the scatter advanced each slot to its
		// successor's start).
		start := int32(0)
		for c := 0; c < be; c++ {
			group := sorted[start:cnt[c]]
			start = cnt[c]
			if len(group) == 0 {
				continue
			}
			values[lo+uint32(c)] = edgeCover(group, ws)
		}
	}
	return values
}

// coverScratch is the vertex-cover workspace: node-indexed accumulators
// reset through the group's node list, so one edge's cover costs O(pairs)
// with no hashing. Leased through the unified ball.Pool layer.
type coverScratch struct {
	sum      []float64
	weight   []float64
	residual []float64
	cnt      []int32
	localIdx []int32
	inCover  []bool

	nodes      []int32 // distinct nodes of the current group, first-touch order
	coverOrder []int32
	plists     [][]int32 // per-cover-slot partner lists (capacities persist)

	// sorted is one bucket's entries grouped by edge, at most one
	// 32-edge bucket's share of the entry universe.
	sorted []coverEntry
}

var coverPool = ball.NewPool(func() *coverScratch { return &coverScratch{} })

func (ws *coverScratch) ensure(n int) {
	if len(ws.sum) < n {
		ws.sum = make([]float64, n)
		ws.weight = make([]float64, n)
		ws.residual = make([]float64, n)
		ws.cnt = make([]int32, n)
		ws.localIdx = make([]int32, n)
		ws.inCover = make([]bool, n)
	}
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// growPairs returns b with length n, growing capacity at least twofold so
// the cover's bucket buffer reallocates only logarithmically often as it
// meets ever larger buckets.
func growPairs(b []coverEntry, n int) []coverEntry {
	if cap(b) < n {
		return make([]coverEntry, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// edgeCover computes one edge's link value from its canonically ordered
// pair entries: the primal-dual (local-ratio) weighted vertex cover of the
// traversal-set bipartite graph, followed by a reverse-order redundancy
// prune that removes cover nodes whose pairs are all covered by other cover
// nodes (without the prune, ties double access-link values). Every float
// accumulation runs in the entries' canonical order, so the value is
// bit-deterministic across runs and worker counts.
func edgeCover(pairs []coverEntry, ws *coverScratch) float64 {
	nodes := ws.nodes[:0]
	for _, p := range pairs {
		if ws.cnt[p.u] == 0 {
			nodes = append(nodes, p.u)
		}
		ws.sum[p.u] += p.w
		ws.cnt[p.u]++
		if ws.cnt[p.t] == 0 {
			nodes = append(nodes, p.t)
		}
		ws.sum[p.t] += p.w
		ws.cnt[p.t]++
	}
	for _, v := range nodes {
		w := ws.sum[v] / float64(ws.cnt[v])
		ws.weight[v] = w
		ws.residual[v] = w
	}
	coverOrder := ws.coverOrder[:0]
	for _, p := range pairs {
		u, t := p.u, p.t
		if ws.inCover[u] || ws.inCover[t] {
			continue
		}
		ru, rt := ws.residual[u], ws.residual[t]
		m := ru
		if rt < m {
			m = rt
		}
		ws.residual[u] = ru - m
		ws.residual[t] = rt - m
		if ws.residual[u] <= 1e-12 {
			ws.inCover[u] = true
			coverOrder = append(coverOrder, u)
		}
		if t != u && ws.residual[t] <= 1e-12 {
			ws.inCover[t] = true
			coverOrder = append(coverOrder, t)
		}
	}
	// Redundancy prune. A lone cover node can never be removed — its
	// partners are by construction outside the cover — so the partner-list
	// machinery only runs for multi-node covers. Each cover node gets a
	// local slot with an append-grown partner list (slot capacities persist
	// across groups through the scratch), built in one pass over the pairs;
	// only cover nodes are slotted, so slot setup is O(|cover|), not
	// O(|nodes|).
	if len(coverOrder) > 1 {
		nc := len(coverOrder)
		for len(ws.plists) < nc {
			ws.plists = append(ws.plists, nil)
		}
		pl := ws.plists
		for i, v := range coverOrder {
			ws.localIdx[v] = int32(i)
			pl[i] = pl[i][:0]
		}
		for _, p := range pairs {
			if ws.inCover[p.u] {
				li := ws.localIdx[p.u]
				pl[li] = append(pl[li], p.t)
			}
			if ws.inCover[p.t] {
				li := ws.localIdx[p.t]
				pl[li] = append(pl[li], p.u)
			}
		}
		for i := nc - 1; i >= 0; i-- {
			removable := true
			for _, w := range pl[i] {
				if !ws.inCover[w] {
					removable = false
					break
				}
			}
			if removable {
				ws.inCover[coverOrder[i]] = false
			}
		}
	}
	// Sum in coverOrder (not node order) so the float accumulation matches
	// the cover construction exactly.
	value := 0.0
	for _, v := range coverOrder {
		if ws.inCover[v] {
			value += ws.weight[v]
		}
	}
	// Restore the zero-at-rest invariant for the next group.
	for _, v := range nodes {
		ws.sum[v] = 0
		ws.cnt[v] = 0
		ws.inCover[v] = false
	}
	ws.nodes = nodes
	ws.coverOrder = coverOrder
	return value
}
