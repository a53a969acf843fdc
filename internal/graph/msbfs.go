package graph

import (
	"fmt"
	"math/bits"
)

// MSBFSWordBits is the number of sources one uint64 mask word tracks.
const MSBFSWordBits = 64

// MSBFSMaxWords bounds the mask width: a batch uses W = ceil(sources/64)
// words per node, up to this many.
const MSBFSMaxWords = 4

// MSBFSWidth is the single-word batch width, kept as the conservative
// default for callers that size their own batches.
const MSBFSWidth = MSBFSWordBits

// MSBFSMaxWidth is the maximum number of sources one bit-parallel batch
// processes with multi-word masks.
const MSBFSMaxWidth = MSBFSWordBits * MSBFSMaxWords

// MSBFSScratch runs bit-parallel multi-source breadth-first traversals
// (MS-BFS style): up to MSBFSMaxWidth sources advance through one shared
// CSR sweep per level, tracked by per-node seen/frontier/next mask strips of
// W×uint64 where bit i (word i/64, bit i%64) belongs to sources[i]. The
// metric sweeps (expansion, eccentricity, path length, hop plots) are
// embarrassingly source-parallel but were paying one full adjacency scan
// per source; a batch pays one scan per level for the whole strip, which is
// what makes the paper-scale sweeps fast on a single core. W is chosen per
// run from the batch size, so narrow batches keep the one-word fast path.
// A run keeps per-level reach counts only, never an nsrc×n distance matrix.
//
// Like BFSScratch, visited-ness is epoch-stamped through graph.Stamp: a run
// bumps an epoch instead of clearing the mask arrays, so starting a batch
// costs O(sources), not O(N). The same ownership rules apply: a scratch is
// not safe for concurrent use (give each worker its own), and LevelCounts
// reads buffers owned by the scratch that are valid only until the next
// run.
type MSBFSScratch struct {
	live     Stamp
	words    int       // mask strip width W of the current run
	seen     []uint64  // strided strips: word w of node v at [v*W+w]
	frontier []uint64  // bit i set ⇔ v entered i's frontier at the current level
	next     []uint64  // bits accumulated for the next level's frontier
	cur, nxt []int32   // active node lists for the level sweep
	counts   [][]int32 // counts[i][h] = nodes at distance exactly h from sources[i]
}

// NewMSBFSScratch returns an empty scratch; buffers grow on first use.
func NewMSBFSScratch() *MSBFSScratch { return &MSBFSScratch{} }

// begin sizes the buffers for an n-node graph, nsrc sources (mask width
// words) and opens a new epoch.
func (s *MSBFSScratch) begin(n, nsrc int) {
	words := (nsrc + MSBFSWordBits - 1) / MSBFSWordBits
	if s.live.Begin(n) {
		s.cur = make([]int32, 0, n)
		s.nxt = make([]int32, 0, n)
	}
	if need := n * words; len(s.seen) < need {
		s.seen = make([]uint64, need)
		s.frontier = make([]uint64, need)
		s.next = make([]uint64, need)
	}
	s.words = words
	for len(s.counts) < nsrc {
		s.counts = append(s.counts, nil)
	}
	for i := 0; i < nsrc; i++ {
		s.counts[i] = s.counts[i][:0]
	}
	s.cur = s.cur[:0]
}

// touch opens v's mask strip for the current epoch.
func (s *MSBFSScratch) touch(v int32) {
	if s.live.Visit(v) {
		base := int(v) * s.words
		for w := 0; w < s.words; w++ {
			s.seen[base+w] = 0
			s.frontier[base+w] = 0
			s.next[base+w] = 0
		}
	}
}

// RunLevels traverses g from all sources at once (1 to MSBFSMaxWidth of
// them; it panics otherwise). Afterwards LevelCounts(i) describes
// sources[i]'s traversal until the next run. The counts are exactly those
// of a scalar BFS per source.
func (s *MSBFSScratch) RunLevels(g *Graph, sources []int32) {
	if len(sources) == 0 || len(sources) > MSBFSMaxWidth {
		panic(fmt.Sprintf("graph: MSBFS batch of %d sources, want 1..%d", len(sources), MSBFSMaxWidth))
	}
	s.begin(g.NumNodes(), len(sources))
	W := s.words
	for i, src := range sources {
		word, bit := i/MSBFSWordBits, uint64(1)<<uint(i%MSBFSWordBits)
		s.touch(src)
		base := int(src) * W
		queued := false
		for w := 0; w < W; w++ {
			if s.frontier[base+w] != 0 {
				queued = true
				break
			}
		}
		if !queued {
			s.cur = append(s.cur, src)
		}
		s.seen[base+word] |= bit
		s.frontier[base+word] |= bit
		s.counts[i] = append(s.counts[i], 1)
	}
	if W == 1 {
		s.sweepOne(g)
	} else {
		s.sweepWide(g)
	}
}

// sweepOne is the single-word level sweep (batches of up to 64 sources),
// kept free of the per-word strip loops.
func (s *MSBFSScratch) sweepOne(g *Graph) {
	for level := int32(1); len(s.cur) > 0; level++ {
		s.nxt = s.nxt[:0]
		for _, u := range s.cur {
			fu := s.frontier[u]
			for _, v := range g.Neighbors(u) {
				s.touch(v)
				// seen is only updated when the level closes, so the same
				// node can collect frontier bits from several level-h
				// neighbors; next deduplicates them.
				add := fu &^ s.seen[v]
				if add == 0 {
					continue
				}
				if s.next[v] == 0 {
					s.nxt = append(s.nxt, v)
				}
				s.next[v] |= add
			}
		}
		for _, v := range s.nxt {
			fresh := s.next[v]
			s.next[v] = 0
			s.seen[v] |= fresh
			s.frontier[v] = fresh
			for m := fresh; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				// A source's frontier drains monotonically, so its count
				// row is contiguous: level == len(row) on first touch.
				if len(s.counts[i]) <= int(level) {
					s.counts[i] = append(s.counts[i], 0)
				}
				s.counts[i][level]++
			}
		}
		s.cur, s.nxt = s.nxt, s.cur
	}
}

// sweepWide is the multi-word level sweep: identical traversal with W-word
// mask strips per node.
func (s *MSBFSScratch) sweepWide(g *Graph) {
	W := s.words
	for level := int32(1); len(s.cur) > 0; level++ {
		s.nxt = s.nxt[:0]
		for _, u := range s.cur {
			ub := int(u) * W
			fu := s.frontier[ub : ub+W]
			for _, v := range g.Neighbors(u) {
				s.touch(v)
				vb := int(v) * W
				var had, added uint64
				for w := 0; w < W; w++ {
					had |= s.next[vb+w]
					add := fu[w] &^ s.seen[vb+w]
					s.next[vb+w] |= add
					added |= add
				}
				if added != 0 && had == 0 {
					s.nxt = append(s.nxt, v)
				}
			}
		}
		for _, v := range s.nxt {
			vb := int(v) * W
			for w := 0; w < W; w++ {
				fresh := s.next[vb+w]
				s.next[vb+w] = 0
				s.seen[vb+w] |= fresh
				s.frontier[vb+w] = fresh
				hi := w * MSBFSWordBits
				for m := fresh; m != 0; m &= m - 1 {
					i := hi + bits.TrailingZeros64(m)
					if len(s.counts[i]) <= int(level) {
						s.counts[i] = append(s.counts[i], 0)
					}
					s.counts[i][level]++
				}
			}
		}
		s.cur, s.nxt = s.nxt, s.cur
	}
}

// LevelCounts returns sources[i]'s per-level reach counts: counts[h] nodes
// sit at distance exactly h, and len(counts) is the source's eccentricity
// plus one. The slice is owned by the scratch and valid until the next run.
func (s *MSBFSScratch) LevelCounts(i int) []int32 {
	return s.counts[i]
}

// ApproxDiameter estimates g's diameter with a double BFS sweep (BFS from
// node 0, then from the farthest node found): a classic lower bound that is
// exact on trees and within a small factor on the paper's graphs.
// Distortion's Brandes election uses it to route high-diameter ball
// subgraphs (lattices) onto the scalar path, where bit-parallel batching
// loses (mask traffic repeats per level while frontiers stay thin). The
// ball engine's distance sweeps route on the first leg's 90th-percentile
// distance instead, which a few long chains do not move. Deterministic;
// costs two traversals on s's scratch.
func ApproxDiameter(g *Graph, s *BFSScratch) int {
	if g.NumNodes() == 0 {
		return 0
	}
	order := s.BFS(g, 0)
	far := order[len(order)-1]
	order = s.BFS(g, far)
	return int(s.Dist(order[len(order)-1]))
}
