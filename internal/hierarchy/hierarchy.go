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

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/obs"
	"topocmp/internal/policy"
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
	// Parallelism caps the worker count of the source sweeps and of the
	// cover; 0 uses GOMAXPROCS, 1 runs sequentially. Results are identical
	// at every width.
	Parallelism int
	// Metrics, when non-nil, counts the source sweeps performed
	// (hierarchy.link_value_sweeps / hierarchy.policy_sweeps). Never
	// affects results.
	Metrics *obs.Registry `json:"-"`
}

func (o *Options) defaults() {
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
}

// workers resolves the worker count for n work items (source sweeps or
// cover buckets).
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

// streamEntry is one pair's crossing of an edge, with the fraction of the
// pair's shortest paths that cross it. The pair is an index into its
// stream's pair table, which holds each swept pair (u, t) once, so an entry
// takes 16 bytes instead of the 24 that spelling out both endpoints would.
// A stream's write index is an int32 and every swept pair emits at least
// one entry, so a pair index always fits in uint32.
type streamEntry struct {
	edge, pair uint32
	w          float64
}

// streamPair is one swept pair (u, t) of a stream's pair table. The sweeps
// emit each unordered pair once, as u < t.
type streamPair struct{ u, t int32 }

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

// bucketChunk is the edgeStream chunk size in entries (a power of two: the
// emission fast path tests the cursor against the chunk mask).
const bucketChunk = 1024

// blockShift sizes the edgeStream blocks: 64 chunks, 1 MB of entries.
const (
	blockShift = 16
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// edgeStream radix-partitions one worker's pair entries by edge-id bucket as
// they are emitted, so no sweep materializes a linear entry log or a
// full-size counting sort: the sweeps append each entry to its bucket's
// chunk chain (a handful of hot sequential tails instead of one random-write
// arena), and the cover re-sorts one cache-resident bucket at a time into
// per-edge groups.
//
// Chunks are numbered in the order they open and live in fixed-size blocks,
// blockLen/bucketChunk to a block, so growth appends a block and never
// copies the entries already written. Once the cover has read them, the
// sweep's release frees all but retainedBlocks of them (free).
//
// cur is each bucket's next write index: chunk number × bucketChunk plus
// the offset inside the chunk, so entry c lives at blocks[c>>blockShift]
// [c&blockMask]. Chunk 0 is a reserved sentinel no bucket ever owns, so
// cur == 0 (empty bucket) and any other chunk-aligned value (full tail)
// both land on the one boundary test at the open-coded emission sites.
type edgeStream struct {
	heads  []int32 // per bucket: first chunk, -1 when empty
	tails  []int32 // per bucket: tail chunk
	cur    []int32 // per bucket: next write index
	next   []int32 // per chunk: successor, -1 at the tail
	blocks []*[blockLen]streamEntry
	pairs  []streamPair // the swept pairs, in emission order
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
	// Reserve the sentinel chunk (its contents are never read); the first
	// grow allocates a block when none is retained.
	es.next = append(es.next[:0], -1)
	es.pairs = es.pairs[:0]
}

// retainedBlocks is how many entry blocks (1 MB each) a stream keeps
// through free, for the next sweep that leases its scratch from the pool.
// Zeroing fresh blocks made a pass over the quick-scale RL, AS and PLRG at
// 384 sources 4–16% slower than one on reused blocks; 16 blocks, a whole
// AS or PLRG pass, remove that, and fewer do not (EXPERIMENTS.md). The
// pool's collector-owned store bounds how long they stay.
const retainedBlocks = 16

// free drops every entry block past the retained ones, once the cover has
// read them, and the pair table when it holds more pairs than the retained
// blocks hold entries (every pair owns at least one entry, so a pass that
// fits the retained blocks keeps its table). Reused storage is left dirty:
// cur and the pair count bound every read.
func (es *edgeStream) free() {
	keep := min(len(es.blocks), retainedBlocks)
	clear(es.blocks[keep:])
	es.blocks = es.blocks[:keep]
	if cap(es.pairs) > retainedBlocks*blockLen {
		es.pairs = nil
	}
}

// addPair appends the pair (u, t) to the pair table and returns its index,
// the pair field of the entries the sweep then emits for it.
func (es *edgeStream) addPair(u, t int32) uint32 {
	es.pairs = append(es.pairs, streamPair{u, t})
	return uint32(len(es.pairs) - 1)
}

// add appends p to its bucket: the emission of the policy sweeps, whose
// per-entry cost is dominated by the product-space walk. The plain sweep
// open-codes the same fast path.
func (es *edgeStream) add(p streamEntry) {
	b := p.edge >> coverBucketShift
	if c := es.cur[b]; c&(bucketChunk-1) != 0 {
		es.blocks[c>>blockShift][c&blockMask] = p
		es.cur[b] = c + 1
		return
	}
	es.grow(b, p)
}

// grow opens a new tail chunk for bucket b and writes p as its first entry.
func (es *edgeStream) grow(b uint32, p streamEntry) {
	ni := int32(len(es.next))
	es.next = append(es.next, -1)
	base := ni * bucketChunk
	if int(base>>blockShift) == len(es.blocks) {
		es.blocks = append(es.blocks, new([blockLen]streamEntry))
	}
	es.blocks[base>>blockShift][base&blockMask] = p
	if ti := es.tails[b]; ti >= 0 {
		es.next[ti] = ni
	} else {
		es.heads[b] = ni
	}
	es.tails[b] = ni
	es.cur[b] = base + 1
}

// size returns the number of entries in bucket b.
func (es *edgeStream) size(b int) int {
	n := 0
	for ci := es.heads[b]; ci >= 0; ci = es.next[ci] {
		if ci == es.tails[b] {
			n += int(es.cur[b] - ci*bucketChunk)
		} else {
			n += bucketChunk
		}
	}
	return n
}

// segment is one chunk of a bucket's entries, with the pair table of the
// stream they came from.
type segment struct {
	entries []streamEntry
	pairs   []streamPair
}

// segments appends bucket b's entries to segs as chunk slices, in emission
// order.
func (es *edgeStream) segments(b int, segs []segment) []segment {
	for ci := es.heads[b]; ci >= 0; ci = es.next[ci] {
		base := ci * bucketChunk
		n := int32(bucketChunk)
		if ci == es.tails[b] {
			n = es.cur[b] - base
		}
		off := base & blockMask
		segs = append(segs, segment{es.blocks[base>>blockShift][off : off+n], es.pairs})
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
	// (table-read) edge-id lookup. Policy sweeps keep the same lists over
	// product states (policyPreds.build): b is then a product state and
	// predAdj holds predecessor states.
	pstamp   graph.Stamp
	predLo   []int32 // b's pred arcs are predAdj[predLo[b]:predHi[b]]
	predHi   []int32 // valid only where pstamp has seen b
	predAdj  []int32 // fixed length per source (beginPreds); predN is the fill cursor
	predEdge []uint32
	predN    int32
	// stream is the worker's entry store, freed down to its retained
	// blocks once the cover has read it.
	stream *edgeStream
	// The policy sweeps' product-space path tree and path-count row, both
	// recycled from source to source (PathsInto and CountsInto refill them
	// whole).
	tree  *policy.PathTree
	sigma []float64
}

var sweepPool = ball.NewPool(func() *sweepScratch {
	return &sweepScratch{bfs: graph.NewBFSScratch(), stream: &edgeStream{}}
})

// grownZero returns b with length at least n; freshly grown storage is
// zeroed by make, and surviving storage is zero by the reset invariant.
func grownZero(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// visitFunc runs source u's traversal on the worker's scratch ws and
// sweeps every target of u into the worker's stream ws.stream.
type visitFunc func(ws *sweepScratch, u int32)

// workerBlocks cuts the q sorted sources into contiguous per-worker blocks
// of near-equal pair count. The source at rank r pairs with its q−1−r later
// sources, so cutting by source count would hand the first worker of two
// three quarters of the sweep. Worker w gets sources [b[w], b[w+1]),
// within one source's pairs of an equal share.
func workerBlocks(q, workers int) []int {
	return blockCuts(q, workers, func(k int) int64 { // pairs of the sources ranked below k
		r := int64(k)
		return r*int64(q-1) - r*(r-1)/2
	})
}

// blockCuts cuts n items into contiguous per-worker blocks, worker w taking
// items [b[w], b[w+1]), given before(k), the nondecreasing cost of the
// items below k: each cut lies within one item of an equal share.
func blockCuts(n, workers int, before func(k int) int64) []int {
	total := before(n)
	b := make([]int, workers+1)
	k := 0
	for w := 1; w < workers; w++ {
		share := total * int64(w) / int64(workers)
		for k < n && before(k) < share {
			k++
		}
		b[w] = k
	}
	b[workers] = n
	return b
}

// sweep is the one link-value driver. The sorted sources are cut into
// contiguous per-worker blocks balanced by pair count, so every source of
// worker w precedes every source of worker w+1, and each worker visits its
// sources in ascending order into its own stream. The streams come back in
// worker order, which is the canonical (u, t) order coverValuesStream
// relies on. Once the cover has read them, release frees their entry
// blocks down to the retained ones and returns their scratches to the
// pool, so the entries, the largest thing a run holds, do not outlive
// their pass.
// The graph is immutable and every worker owns its leased scratch, so the
// workers share nothing but read-only inputs. A worker's panic stops the
// others at their next source and is re-raised here; the scratches are
// then dropped, not pooled, since a sweep cut short can leave them off
// their reset invariants.
func sweep(opts *Options, sources []int32, numEdges int,
	visit visitFunc) (streams []*edgeStream, release func()) {

	workers := opts.workers(len(sources))
	blocks := workerBlocks(len(sources), workers)
	wss := make([]*sweepScratch, workers)
	streams = make([]*edgeStream, workers)
	var grp ball.Group
	for w := range wss {
		ws := sweepPool.Get()
		wss[w], streams[w] = ws, ws.stream
		ws.stream.reset(numEdges)
		mine := sources[blocks[w]:blocks[w+1]]
		grp.Go(func() {
			for _, u := range mine {
				if grp.Stopped() {
					return
				}
				visit(ws, u)
			}
		})
	}
	grp.Wait()
	return streams, func() {
		for _, ws := range wss {
			ws.stream.free()
			sweepPool.Put(ws)
		}
	}
}

// sweepPlain runs LinkValues' shortest-path sweep over unordered pairs
// (the tests' TraversalSetSizes reads it too): per source u, the ancestor
// DAG of every sampled target t > u, walked in ascending target order over
// the lazy predecessor lists. The pair (t, u) would cross the same edges with the
// same fractions, so it is never swept; the cover replays its weights from
// this one copy (edgeCover).
func sweepPlain(g *graph.Graph, opts *Options, sources []int32, inQ []bool) ([]*edgeStream, func()) {
	n, m := g.NumNodes(), g.NumEdges()
	off, adj := g.CSR()
	arcIDs := graph.NewEdgeIndex(g).ArcIDs() // shared, read-only across workers
	visit := func(ws *sweepScratch, u int32) {
		ws.bfs.Counts(g, u)
		dist, sigma := ws.bfs.Rows()
		ws.gval = grownZero(ws.gval, n)
		ws.beginPreds(n, m)
		fs := newFastSweep(off, adj, arcIDs, dist, sigma, ws)
		for t := u + 1; t < int32(n); t++ {
			if !inQ[t] {
				continue
			}
			// The rows are stale at unreached nodes; the epoch-guarded
			// Dist gates the targets.
			if d := ws.bfs.Dist(t); d > 0 && d != graph.Unreached {
				sweepTargetStream(u, t, int(d), fs, ws, ws.stream)
			}
		}
	}
	return sweep(opts, sources, m, visit)
}

// LinkValues computes link values under shortest-path routing. Source
// sweeps, one counting BFS per source, run concurrently over unordered
// pairs. The worker-ordered streams make the result independent of
// scheduling, so the values are byte-identical across worker counts.
func LinkValues(g *graph.Graph, opts Options) *Result {
	opts.defaults()
	sources, inQ := sampleSources(g.NumNodes(), opts)
	opts.Metrics.Counter("hierarchy.link_value_sweeps").Add(int64(len(sources)))
	streams, release := sweepPlain(g, &opts, sources, inQ)
	defer release()
	values := coverValuesStream(g.NumEdges(), g.NumNodes(), streams, &opts)
	return &Result{Edges: g.Edges(), Values: values, N: len(sources), Nodes: g.NumNodes()}
}

// beginPreds resets the lazy predecessor state for a new source over n
// nodes (or product states): one epoch bump and a cursor reset — no
// per-node clearing, predLo/predHi are only read where pstamp has seen the
// node. The arc buffers are sized up front to maxArcs, a bound on the
// source's total pred-arc count, so they never reallocate — which lets
// fastSweep hold them as stable slices the hot loops read without
// reloading. For plain sweeps m bounds it: an undirected edge is a pred arc
// in at most one direction per source (its endpoints' distances differ by
// at most one).
func (ws *sweepScratch) beginPreds(n, maxArcs int) {
	ws.pstamp.Begin(n)
	ws.predLo = growI32(ws.predLo, n)
	ws.predHi = growI32(ws.predHi, n)
	ws.predAdj = growI32(ws.predAdj, maxArcs)
	if cap(ws.predEdge) < maxArcs {
		ws.predEdge = make([]uint32, maxArcs)
	} else {
		ws.predEdge = ws.predEdge[:maxArcs]
	}
	ws.predN = 0
}

// fastSweep bundles one source's immutable sweep inputs — the graph CSR,
// the arc-id table, the source's distance/path-count rows, and the source's
// pred-arc buffers (stable for the source's lifetime, see beginPreds). The
// walk reads the rows only at the target's ancestors and their neighbours,
// all reached by the source's traversal, so the rows may be stale at
// unreached nodes.
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
// values) and emitting one entry per DAG arc straight into its edge's
// bucket of es, once the pair is in es's pair table. gval/touched/buckets
// are reused across targets (gval zeroed via touched). Pred lists preserve
// adjacency order, so the per-pair entry order is fixed by the graph alone.
//
// When the pair has a unique shortest path (sigma[t] == 1), the ancestor
// DAG is a single chain — every node on it also has path count 1, hence
// exactly one pred — and every fraction is exactly 1*1/1 = 1, so the walk
// degenerates to following single pred links with no g-value bookkeeping.
// Entry order and float values are identical to the general walk's.
func sweepTargetStream(u, t int32, dt int, fs *fastSweep, ws *sweepScratch,
	es *edgeStream) {

	sigma := fs.sigma
	pair := es.addPair(u, t)
	// The stream emission fast path is open-coded (the grow call pushes a
	// method past the inliner's budget). cur never moves during a sweep;
	// blocks is reloaded after any grow, which may append a block.
	cur, blocks := es.cur, es.blocks
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
				blocks[c>>blockShift][c&blockMask] = streamEntry{edge: e, pair: pair, w: 1}
				cur[bkt] = c + 1
			} else {
				es.grow(bkt, streamEntry{edge: e, pair: pair, w: 1})
				blocks = es.blocks
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
					blocks[c>>blockShift][c&blockMask] = streamEntry{edge: e, pair: pair, w: frac}
					cur[bkt] = c + 1
				} else {
					es.grow(bkt, streamEntry{edge: e, pair: pair, w: frac})
					blocks = es.blocks
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
// vertex cover per edge. The streams hold each unordered pair once (see
// edgeCover).
//
// Each edge's cover reads only its own entries, so the buckets split into
// contiguous ranges of near-equal entry count, one per worker; every worker
// leases its own cover scratch and writes only its buckets' slots of
// values, so the result is the same at every worker count. One worker runs
// on the caller's goroutine.
func coverValuesStream(numEdges, numNodes int, streams []*edgeStream, opts *Options) []float64 {
	values := make([]float64, numEdges)
	buckets := numEdges>>coverBucketShift + 1
	workers := opts.workers(buckets)
	if workers == 1 {
		coverBuckets(0, buckets, numNodes, streams, values)
		return values
	}
	// Entries in the buckets below b, the per-bucket cost of the split.
	before := make([]int64, buckets+1)
	for b := 0; b < buckets; b++ {
		before[b+1] = before[b]
		for _, es := range streams {
			before[b+1] += int64(es.size(b))
		}
	}
	cuts := blockCuts(buckets, workers, func(b int) int64 { return before[b] })
	var grp ball.Group
	for w := 0; w < workers; w++ {
		lo, hi := cuts[w], cuts[w+1]
		grp.Go(func() { coverBuckets(lo, hi, numNodes, streams, values) })
	}
	grp.Wait()
	return values
}

// coverBuckets covers the edges of buckets [lo, hi) into values. It walks
// one bucket at a time, reading the bucket's chunks across the streams in
// worker order. Each stream is (u, t)-ascending and the workers' source
// blocks ascend with worker index, so that walk is (u, t)-ascending too; a
// stable counting sort by edge then lands every group in the canonical
// (edge, u, t) order the order-dependent primal-dual needs, with no global
// sort. The scatter spells out each entry's pair from its stream's pair
// table, so every group holds the same entries in the same order as if the
// streams stored the pairs themselves. Only one bucket's entries are ever
// copied.
func coverBuckets(lo, hi, numNodes int, streams []*edgeStream, values []float64) {
	ws := coverPool.Get()
	defer coverPool.Put(ws)
	ws.ensure(numNodes)
	const be = 1 << coverBucketShift
	var cnt [be + 1]int32
	var segs []segment
	for b := lo; b < hi; b++ {
		segs = segs[:0]
		for _, es := range streams {
			segs = es.segments(b, segs)
		}
		if len(segs) == 0 {
			continue
		}
		first := uint32(b) << coverBucketShift
		cnt = [be + 1]int32{}
		total := 0
		for _, seg := range segs {
			total += len(seg.entries)
			for i := range seg.entries {
				cnt[seg.entries[i].edge-first+1]++
			}
		}
		for i := 0; i < be; i++ {
			cnt[i+1] += cnt[i]
		}
		sorted := growPairs(ws.sorted, total)
		ws.sorted = sorted
		for _, seg := range segs {
			pairs := seg.pairs
			for i := range seg.entries {
				p := &seg.entries[i]
				c := p.edge - first
				pr := pairs[p.pair]
				sorted[cnt[c]] = coverEntry{u: pr.u, t: pr.t, w: p.w}
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
			values[first+uint32(c)] = edgeCover(group, ws)
		}
	}
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
// bit-deterministic across runs and worker counts. On return
// ws.coverOrder holds the final cover in construction order.
//
// pairs holds each unordered pair once, as (a, b) with a < b, and the value
// equals the cover over the ordered pairs with every entry mirrored as
// (b, a) (the reference fold in ordered_test.go):
//   - A node x's weight folds, in the ordered stream, its entries with a
//     smaller partner (A) as targets, then the same pairs again at the
//     start of its own source block, then its entries with a larger
//     partner (B), then those again as targets of later sources: A, A, B,
//     B, each in partner order. Four passes over the half group replay
//     exactly that sequence.
//   - The primal-dual step on (a, b) leaves an endpoint in the cover, and
//     (a, b) precedes (b, a) in canonical order, so the ordered route
//     skips every mirrored entry.
//   - The prune reads partner sets, which the mirrors do not change.
func edgeCover(pairs []coverEntry, ws *coverScratch) float64 {
	nodes := ws.nodes[:0]
	for range 2 {
		for _, p := range pairs {
			nodes = ws.add(nodes, p.t, p.w)
		}
	}
	for range 2 {
		for _, p := range pairs {
			nodes = ws.add(nodes, p.u, p.w)
		}
	}
	return ws.cover(pairs, nodes)
}

// add folds one entry's weight into node v's traversal weight, appending v
// to nodes, the group's distinct nodes in first-touch order, on its first
// entry.
func (ws *coverScratch) add(nodes []int32, v int32, w float64) []int32 {
	if ws.cnt[v] == 0 {
		nodes = append(nodes, v)
	}
	ws.sum[v] += w
	ws.cnt[v]++
	return nodes
}

// cover runs the primal-dual cover and the prune over pairs, once the
// weights of the group's nodes are folded (add), and restores the scratch.
func (ws *coverScratch) cover(pairs []coverEntry, nodes []int32) float64 {
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
	kept := coverOrder[:0]
	for _, v := range coverOrder {
		if ws.inCover[v] {
			value += ws.weight[v]
			kept = append(kept, v)
		}
	}
	coverOrder = kept
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
