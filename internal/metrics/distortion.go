package metrics

import (
	"math/rand"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/stats"
)

// DistortionWith computes D(n) on the engine's graph: for the subgraph
// inside an n-node ball, the average distance on a spanning tree T between
// the endpoints of each graph edge, minimized over candidate trees
// (§3.2.1). Following the paper's heuristic (footnote 14), the ball's
// "center" is the node the most shortest-path pairs traverse; the BFS tree
// rooted there (and at the next roots−1 candidates — "our own heuristics";
// roots <= 0 means 3) provides the spanning trees. Balls grow on the
// engine's worker pool, their subgraphs come from the shared ball cache,
// and the center election runs on the engine's leased kernel bundles.
func DistortionWith(e *ball.Engine, cfg ball.Config, roots int) stats.Series {
	if roots <= 0 {
		roots = 3
	}
	if cfg.MinBallSize == 0 {
		cfg.MinBallSize = 3
	}
	raw := e.BallPointsKernels(cfg, 0, func(sub *graph.Graph, _ int, _ *rand.Rand, k *ball.Kernels) (float64, bool) {
		d := SubgraphDistortionKernels(sub, roots, k)
		return d, d > 0
	})
	s := stats.Bucketize(raw, stats.BucketRatio)
	s.Name = "distortion"
	return s
}

// distScratch is the distortion workspace family — the spanning-tree arrays
// and the betweenness accumulator — leased per subgraph through the
// unified ball.Pool layer. The Brandes strips come from the ball.Kernels
// bundle instead, so engine-driven calls share the per-worker kernels every
// other ball metric uses.
type distScratch struct {
	parent, depth, queue []int32
	sources              []int32
	bc                   []float64
}

var distPool = ball.NewPool(func() *distScratch { return &distScratch{} })

// SubgraphDistortionKernels returns the distortion estimate for one
// connected graph: the minimum, over BFS trees rooted at the top `roots`
// betweenness candidates, of the average tree distance between edge
// endpoints; 0 for graphs with no edges. The betweenness election runs on
// k's bit-parallel Brandes strips, and the tree arrays come from the pooled
// distortion workspace, so the per-ball hot path is allocation-free. k
// needs only Brandes; a bundle built outside an engine records no counters.
//
// A tree (connected, m = n−1) is its own only spanning tree, so it answers
// exactly 1 without an election: every candidate root's BFS tree is the
// graph itself, each edge lies at tree distance 1, and the average is
// count/count.
func SubgraphDistortionKernels(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	if n := sub.NumNodes(); n >= 2 && sub.NumEdges() == n-1 {
		return 1
	}
	return subgraphDistortion(sub, roots, k)
}

// subgraphDistortion is SubgraphDistortionKernels without the tree answer:
// it always runs the election.
func subgraphDistortion(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	if sub.NumNodes() < 2 || sub.NumEdges() == 0 {
		return 0
	}
	ws := distPool.Get()
	defer distPool.Put(ws)
	return minTreeDistortion(sub, topBetweenness(sub, roots, k, ws), ws)
}

// minTreeDistortion returns the least average tree distance between edge
// endpoints over the BFS trees rooted at centers.
func minTreeDistortion(sub *graph.Graph, centers []int32, ws *distScratch) float64 {
	n := sub.NumNodes()
	// One scratch set serves every candidate root: each BFS rewrites the
	// tree arrays in full, and the edge sweep order is fixed by the CSR.
	ws.parent = growInts(ws.parent, n)
	ws.depth = growInts(ws.depth, n)
	ws.queue = growInts(ws.queue, n)[:0]
	best := -1.0
	for _, c := range centers {
		d := bfsTreeDistortion(sub, c, ws.parent, ws.depth, ws.queue)
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// maxSources caps the sampled Brandes sources of one election.
const maxSources = 24

// electionSources appends to buf the sources an n-node subgraph's election
// samples: the first min(n, maxSources) nodes of a permutation seeded by n.
func electionSources(n int, buf []int32) []int32 {
	perm := rand.New(rand.NewSource(int64(n)*7919 + 17)).Perm(n)
	for _, v := range perm[:min(n, maxSources)] {
		buf = append(buf, int32(v))
	}
	return buf
}

// topBetweenness returns up to k nodes with the highest approximate
// betweenness: Brandes' accumulation from the sampled sources, all of them
// in one bit-parallel batch on kn's strips.
func topBetweenness(g *graph.Graph, k int, kn *ball.Kernels, ws *distScratch) []int32 {
	ws.bc = growFloats(ws.bc, g.NumNodes())
	clear(ws.bc)
	ws.sources = electionSources(g.NumNodes(), ws.sources[:0])
	kn.Brandes.Accumulate(g, ws.sources, ws.bc) // maxSources <= graph.BrandesWidth
	kn.CountBrandes(1)
	return topK(ws.bc, k)
}

// topK returns up to k nodes by (bc desc, id asc): one insertion pass over
// bc into a k-slot slice, instead of materializing and selection-sorting an
// n-entry candidate slice per ball.
func topK(bc []float64, k int) []int32 {
	n := len(bc)
	if k > n {
		k = n
	}
	top := make([]int32, 0, k)
	for v := int32(0); v < int32(n); v++ {
		pos := len(top)
		for pos > 0 && bc[top[pos-1]] < bc[v] {
			pos--
		}
		if pos == k {
			continue
		}
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = v
	}
	return top
}

// growInts returns b resized to n, reallocating only on growth.
func growInts(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// growFloats returns b resized to n, reallocating only on growth.
func growFloats(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

// bfsTreeDistortion builds the BFS tree rooted at root and returns the
// average tree distance between the endpoints of every graph edge. Tree
// distances use parent walks (depth-bounded, cheap on BFS trees); edges are
// swept straight off the CSR in (U, V) order, so no edge list is ever
// materialized. The parent/depth/queue scratch is caller-owned so it can be
// reused across roots.
func bfsTreeDistortion(g *graph.Graph, root int32, parent, depth, queue []int32) float64 {
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	depth[root] = 0
	queue = append(queue[:0], root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	total, count := 0.0, 0
	for u := int32(0); u < int32(g.NumNodes()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				total += float64(treeDist(parent, depth, u, v))
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// treeDist walks u and v up to their lowest common ancestor.
func treeDist(parent, depth []int32, u, v int32) int32 {
	d := int32(0)
	for depth[u] > depth[v] {
		u = parent[u]
		d++
	}
	for depth[v] > depth[u] {
		v = parent[v]
		d++
	}
	for u != v {
		u = parent[u]
		v = parent[v]
		d += 2
	}
	return d
}
