package graph

import (
	"fmt"
	"math/bits"
	"slices"
)

// BrandesWidth is the maximum number of sources one bit-parallel Brandes
// batch accumulates: one bit of a uint64 frontier word per source.
const BrandesWidth = MSBFSWordBits

// BrandesScratch runs batched Brandes betweenness accumulation: up to
// BrandesWidth sources advance through one shared MS-BFS level sweep, with
// per-source sigma (shortest-path count) and delta (dependency) rows laid
// out node-major so the per-level accumulation walks each adjacency list
// once per node instead of once per source.
//
// Instead of per-source distance rows, the sweep keeps one "bits of v at
// the previous level" mask per node (prev), ping-ponged with the mask of
// the level being built (curm): the predecessor test Brandes runs per
// (edge, source) collapses to a single AND against prev, and the backward
// sweep reloads prev per level from the recorded level events.
//
// Ordering contract: within every level, nodes are processed in increasing
// id (the level's nodes are marked in a one-bit-per-node strip and read off
// it word by word, so no level is sorted), and each dependency term is
// evaluated as sigma[a]/sigma[v]*(1+delta[v]) exactly as the scalar
// accumulation writes it. For any one (node, source) slot the contributing
// terms arrive level by level in adjacency order, so sigma values are
// exact integers in float64 matching any scalar order bit-for-bit; delta
// sums are added in the canonical (level desc, id asc, adjacency, bit asc)
// order, which can differ from a scalar per-source run in the last float
// ulps — consumers rank by betweenness, and internal/metrics' tests pin the
// elected roots to a scalar reference.
//
// A run clears the four mask strips, the level strip and the n×B
// sigma/delta rows it uses, so nothing one run leaves behind, even one cut
// short by a panic, reaches the next. The sources are checked before any
// strip changes. A scratch is single-owner, and its buffers are valid only
// until the next Accumulate.
type BrandesScratch struct {
	seen     []uint64  // bit i set ⇔ sources[i] has reached v
	next     []uint64  // frontier bits accumulated for the level being built
	prev     []uint64  // bits of v at the level below the one in flight
	curm     []uint64  // bits of v at the level in flight (swapped into prev)
	cur, nxt []int32   // active node lists for the level sweep
	level    []uint64  // bit v%64 of word v/64 set ⇔ v joins the level being built
	sigma    []float64 // node-major rows: sigma[v*B+i], valid where seen
	delta    []float64
	levOff   []int32  // event ranges per level: events[levOff[h]:levOff[h+1]]
	levNode  []int32  // event node ids, ascending within a level
	levMask  []uint64 // fresh source bits of the event node
}

// NewBrandesScratch returns an empty scratch; buffers grow on first use.
func NewBrandesScratch() *BrandesScratch { return &BrandesScratch{} }

// begin sizes the buffers for an n-node graph and width sources, and
// clears the mask strips and the sigma/delta rows the run uses.
func (b *BrandesScratch) begin(n, width int) {
	if len(b.seen) < n {
		b.seen = make([]uint64, n)
		b.next = make([]uint64, n)
		b.prev = make([]uint64, n)
		b.curm = make([]uint64, n)
		b.cur = make([]int32, 0, n)
		b.nxt = make([]int32, 0, n)
		b.level = make([]uint64, (n+63)/64)
	} else {
		clear(b.seen[:n])
		clear(b.next[:n])
		clear(b.prev[:n])
		clear(b.curm[:n])
		clear(b.level[:(n+63)/64])
	}
	if need := n * width; len(b.sigma) < need {
		b.sigma = make([]float64, need)
		b.delta = make([]float64, need)
	} else {
		clear(b.sigma[:need])
		clear(b.delta[:need])
	}
	b.levOff = b.levOff[:0]
	b.levNode = b.levNode[:0]
	b.levMask = b.levMask[:0]
	b.cur = b.cur[:0]
}

// Accumulate adds every source's Brandes dependency contributions into bc
// (which must have length g.NumNodes(); contributions are added, so callers
// accumulate across batches by looping). The batch must hold 1 to
// BrandesWidth sources, each a node of g; Accumulate panics otherwise. A
// repeated source simply contributes once per occurrence, as a scalar loop
// over the same list would. A source's own bc entry receives no
// contribution from its own traversal, mirroring the scalar accumulation.
func (b *BrandesScratch) Accumulate(g *Graph, sources []int32, bc []float64) {
	n := g.NumNodes()
	if len(sources) == 0 || len(sources) > BrandesWidth {
		panic(fmt.Sprintf("graph: Brandes batch of %d sources, want 1..%d", len(sources), BrandesWidth))
	}
	for _, src := range sources {
		if src < 0 || int(src) >= n {
			panic(fmt.Sprintf("graph: Brandes source %d outside [0, %d)", src, n))
		}
	}
	B := len(sources)
	b.begin(n, B)

	// Level 0: seed the sources. prev carries each node's level-0 bits
	// while level 1 is built.
	for i, src := range sources {
		if b.seen[src] == 0 {
			b.cur = append(b.cur, src)
		}
		b.seen[src] |= uint64(1) << uint(i)
		b.prev[src] |= uint64(1) << uint(i)
		b.sigma[int(src)*B+i] = 1
	}
	slices.Sort(b.cur)
	b.levOff = append(b.levOff, 0)
	for _, v := range b.cur {
		b.levNode = append(b.levNode, v)
		b.levMask = append(b.levMask, b.seen[v])
	}
	b.levOff = append(b.levOff, int32(len(b.levNode)))

	// Forward sweep: shared frontier expansion, then per-level sigma
	// accumulation in canonical (id asc, adjacency, bit asc) order. A
	// neighbor a is a predecessor of v for exactly the bits of prev[a].
	// The level's nodes are marked in the level strip, whose words lo..hi
	// they touch, and read off it in ascending id, clearing it as it goes.
	for len(b.cur) > 0 {
		b.nxt = b.nxt[:0]
		lo, hi := len(b.level), -1
		for _, u := range b.cur {
			fu := b.prev[u]
			for _, v := range g.Neighbors(u) {
				add := fu &^ b.seen[v]
				if add == 0 {
					continue
				}
				if b.next[v] == 0 {
					w := int(v / 64)
					b.level[w] |= 1 << uint(v%64)
					lo, hi = min(lo, w), max(hi, w)
				}
				b.next[v] |= add
			}
		}
		for w := lo; w <= hi; w++ {
			for set := b.level[w]; set != 0; set &= set - 1 {
				v := int32(w*64 + bits.TrailingZeros64(set))
				fresh := b.next[v]
				b.next[v] = 0
				b.seen[v] |= fresh
				b.curm[v] = fresh
				b.nxt = append(b.nxt, v)
				b.levNode = append(b.levNode, v)
				b.levMask = append(b.levMask, fresh)
				row := int(v) * B
				for _, a := range g.Neighbors(v) {
					arow := int(a) * B
					for m := b.prev[a] & fresh; m != 0; m &= m - 1 {
						i := bits.TrailingZeros64(m)
						b.sigma[row+i] += b.sigma[arow+i]
					}
				}
			}
			b.level[w] = 0
		}
		b.levOff = append(b.levOff, int32(len(b.levNode)))
		// Retire the finished level's masks and promote the fresh ones.
		for _, u := range b.cur {
			b.prev[u] = 0
		}
		b.prev, b.curm = b.curm, b.prev
		b.cur, b.nxt = b.nxt, b.cur
	}

	// Backward sweep: dependency accumulation level by level, deepest
	// first, nodes ascending within a level. prev is reloaded per level
	// from the recorded events, so the predecessor test is again one AND.
	// Each term is written exactly as the scalar loop writes it.
	for h := len(b.levOff) - 2; h >= 1; h-- {
		for e := b.levOff[h-1]; e < b.levOff[h]; e++ {
			b.prev[b.levNode[e]] = b.levMask[e]
		}
		for e := b.levOff[h]; e < b.levOff[h+1]; e++ {
			v := b.levNode[e]
			row := int(v) * B
			fresh := b.levMask[e]
			for _, a := range g.Neighbors(v) {
				arow := int(a) * B
				for m := b.prev[a] & fresh; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					b.delta[arow+i] += b.sigma[arow+i] / b.sigma[row+i] * (1 + b.delta[row+i])
				}
			}
		}
		for e := b.levOff[h-1]; e < b.levOff[h]; e++ {
			b.prev[b.levNode[e]] = 0
		}
	}

	// Fold the delta rows into bc: node ascending, source bits ascending,
	// matching a scalar sweep that processes sources in index order.
	for v := int32(0); v < int32(n); v++ {
		row := int(v) * B
		for m := b.seen[v]; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if sources[i] != v {
				bc[v] += b.delta[row+i]
			}
		}
	}
}
