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
// Two modes share the sweep: RunLevels keeps per-level reach counts only,
// and RunSigma keeps full distance and path-count rows.
//
// Like BFSScratch, visited-ness is epoch-stamped through graph.Stamp: a run
// bumps an epoch instead of clearing the mask arrays, so starting a batch
// costs O(sources), not O(N). The same ownership rules apply: a scratch is
// not safe for concurrent use (give each worker its own), and every result
// accessor (LevelCounts, Reached, Eccentricity, DistRow, SigmaRow) reads
// buffers owned by the scratch that are valid only until the next run.
type MSBFSScratch struct {
	live     Stamp
	words    int       // mask strip width W of the current run
	seen     []uint64  // strided strips: word w of node v at [v*W+w]
	frontier []uint64  // bit i set ⇔ v entered i's frontier at the current level
	next     []uint64  // bits accumulated for the next level's frontier
	dist     []int32   // per-source distance rows: dist[i*n+v]; only after RunSigma
	sigma    []float64 // per-source path-count rows: sigma[i*n+v]; only after RunSigma
	// Node-major working buffers for the sigma sweeps (lane i of node v at
	// [v*nsrc+i]): a sigma push touches every active lane of one arc, so
	// node-major keeps those updates on adjacent words instead of scattering
	// them across nsrc distance-n rows — the difference between the kernel
	// streaming from cache and thrashing it on sparse graphs. Transposed
	// into the row-major dist/sigma rows once per run.
	distT    []int32
	sigT     []float64
	cur, nxt []int32   // active node lists for the level sweep
	counts   [][]int32 // counts[i][h] = nodes at distance exactly h from sources[i]
	nsrc     int
	n        int
	sigmaOK  bool // last run was RunSigma: row accessors are valid
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
	s.n, s.nsrc = n, nsrc
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
// them; it panics otherwise). Afterwards LevelCounts(i), Reached(i) and
// Eccentricity(i) describe sources[i]'s traversal until the next run; no
// distance rows are kept, so wide batches never touch an nsrc×n matrix.
// The counts are exactly those of a scalar BFS per source.
func (s *MSBFSScratch) RunLevels(g *Graph, sources []int32) {
	if len(sources) == 0 || len(sources) > MSBFSMaxWidth {
		panic(fmt.Sprintf("graph: MSBFS batch of %d sources, want 1..%d", len(sources), MSBFSMaxWidth))
	}
	s.begin(g.NumNodes(), len(sources))
	s.sigmaOK = false
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

// RunSigma traverses g from all sources at once like RunLevels, additionally
// propagating per-source shortest-path counts (Brandes' sigma) alongside the
// seen/frontier/next bitmasks: one CSR sweep per level replaces up to
// MSBFSMaxWidth scalar BFSScratch.Counts traversals. Afterwards DistRow(i)
// and SigmaRow(i) return sources[i]'s full distance and path-count rows,
// pre-filled (Unreached / 0) so they are valid at every node, reached or
// not. Level counts are not maintained (the rows subsume them);
// LevelCounts/Eccentricity/Reached panic until the next RunLevels.
//
// Sigma values are exact: path counts are integers accumulated in float64,
// and integer sums below 2^53 are associative, so each count equals the
// scalar BFS's bit for bit regardless of accumulation order. Callers route
// graphs whose path counts could overflow that range (high-diameter
// lattices, whose binomial path counts explode) to the scalar path — the
// same graphs the diameter probe already excludes for performance.
func (s *MSBFSScratch) RunSigma(g *Graph, sources []int32) {
	s.runSigma(g.NumNodes(), g.off, g.adj, sources)
}

// RunSigmaCSR is RunSigma over a raw CSR given as off/adj slices, so
// callers with graphs outside the Graph type — the policy layer's directed
// valley-free product graph — batch through the same kernel. The CSR may be
// directed; len(off) must be n+1 and adj entries must lie in [0,n).
func (s *MSBFSScratch) RunSigmaCSR(n int, off, adj []int32, sources []int32) {
	if len(off) != n+1 {
		panic(fmt.Sprintf("graph: RunSigmaCSR offsets len %d, want n+1 = %d", len(off), n+1))
	}
	s.runSigma(n, off, adj, sources)
}

func (s *MSBFSScratch) runSigma(n int, off, adj []int32, sources []int32) {
	if len(sources) == 0 || len(sources) > MSBFSMaxWidth {
		panic(fmt.Sprintf("graph: MSBFS sigma batch of %d sources, want 1..%d", len(sources), MSBFSMaxWidth))
	}
	s.begin(n, len(sources))
	nsrc := len(sources)
	need := nsrc * n
	if cap(s.dist) < need {
		s.dist = make([]int32, need)
	} else {
		s.dist = s.dist[:need]
	}
	if cap(s.sigma) < need {
		s.sigma = make([]float64, need)
	} else {
		s.sigma = s.sigma[:need]
	}
	if cap(s.sigT) < need {
		s.sigT = make([]float64, need)
	} else {
		s.sigT = s.sigT[:need]
		clear(s.sigT)
	}
	if cap(s.distT) < need {
		s.distT = make([]int32, need)
	} else {
		s.distT = s.distT[:need]
	}
	// Pre-fill the working distances so the transposed rows are valid at
	// every node without a seen-mask guard; one memset per batch is noise
	// next to the traversals the batch replaces.
	for i := range s.distT {
		s.distT[i] = Unreached
	}
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
		s.distT[int(src)*nsrc+i] = 0
		s.sigT[int(src)*nsrc+i] = 1
	}
	if W == 1 {
		s.sweepOneSigma(off, adj)
	} else {
		s.sweepWideSigma(off, adj)
	}
	s.transposeSigma(n, nsrc)
	s.sigmaOK = true
}

// transposeSigma rewrites the node-major working buffers into the row-major
// DistRow/SigmaRow layout, tiled so both sides stay cache-resident. Pure
// data movement: per-lane values and their accumulation order are whatever
// the sweep produced, so rows are bit-identical to a row-major kernel's.
func (s *MSBFSScratch) transposeSigma(n, nsrc int) {
	const tile = 32
	for vb := 0; vb < n; vb += tile {
		vend := min(vb+tile, n)
		for ib := 0; ib < nsrc; ib += tile {
			iend := min(ib+tile, nsrc)
			for v := vb; v < vend; v++ {
				base := v * nsrc
				for i := ib; i < iend; i++ {
					s.dist[i*n+v] = s.distT[base+i]
					s.sigma[i*n+v] = s.sigT[base+i]
				}
			}
		}
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

// sweepOneSigma is sweepOne over a raw CSR with per-source sigma pushes: when
// the edge scan discovers v at the next level for source i (bit i in add), u
// is a shortest-path predecessor of v for i, so sigma_i(v) += sigma_i(u).
// seen only advances when the level closes, so every level-(h-1) predecessor
// contributes exactly once per edge before v's own sigma is ever read —
// matching the scalar queue-order accumulation in BFSScratch.Counts.
func (s *MSBFSScratch) sweepOneSigma(off, adj []int32) {
	nsrc := s.nsrc
	for level := int32(1); len(s.cur) > 0; level++ {
		s.nxt = s.nxt[:0]
		for _, u := range s.cur {
			fu := s.frontier[u]
			su := int(u) * nsrc
			for _, v := range adj[off[u]:off[u+1]] {
				s.touch(v)
				add := fu &^ s.seen[v]
				if add == 0 {
					continue
				}
				if s.next[v] == 0 {
					s.nxt = append(s.nxt, v)
				}
				s.next[v] |= add
				sv := int(v) * nsrc
				for m := add; m != 0; m &= m - 1 {
					i := bits.TrailingZeros64(m)
					s.sigT[sv+i] += s.sigT[su+i]
				}
			}
		}
		for _, v := range s.nxt {
			fresh := s.next[v]
			s.next[v] = 0
			s.seen[v] |= fresh
			s.frontier[v] = fresh
			row := int(v) * nsrc
			for m := fresh; m != 0; m &= m - 1 {
				s.distT[row+bits.TrailingZeros64(m)] = level
			}
		}
		s.cur, s.nxt = s.nxt, s.cur
	}
}

// sweepWideSigma is the multi-word sigma sweep: sweepWide's strip walk with
// the same per-bit sigma pushes as sweepOneSigma.
func (s *MSBFSScratch) sweepWideSigma(off, adj []int32) {
	W, nsrc := s.words, s.nsrc
	for level := int32(1); len(s.cur) > 0; level++ {
		s.nxt = s.nxt[:0]
		for _, u := range s.cur {
			ub := int(u) * W
			fu := s.frontier[ub : ub+W]
			su := int(u) * nsrc
			for _, v := range adj[off[u]:off[u+1]] {
				s.touch(v)
				vb := int(v) * W
				sv := int(v) * nsrc
				var had, added uint64
				for w := 0; w < W; w++ {
					had |= s.next[vb+w]
					add := fu[w] &^ s.seen[vb+w]
					if add == 0 {
						continue
					}
					s.next[vb+w] |= add
					added |= add
					hi := w * MSBFSWordBits
					for m := add; m != 0; m &= m - 1 {
						i := hi + bits.TrailingZeros64(m)
						s.sigT[sv+i] += s.sigT[su+i]
					}
				}
				if added != 0 && had == 0 {
					s.nxt = append(s.nxt, v)
				}
			}
		}
		for _, v := range s.nxt {
			vb := int(v) * W
			row := int(v) * nsrc
			for w := 0; w < W; w++ {
				fresh := s.next[vb+w]
				s.next[vb+w] = 0
				s.seen[vb+w] |= fresh
				s.frontier[vb+w] = fresh
				hi := w * MSBFSWordBits
				for m := fresh; m != 0; m &= m - 1 {
					s.distT[row+hi+bits.TrailingZeros64(m)] = level
				}
			}
		}
		s.cur, s.nxt = s.nxt, s.cur
	}
}

// DistRow returns sources[i]'s full distance row after RunSigma: row[v] is
// the hop distance or Unreached (RunSigma pre-fills the rows). Owned by the
// scratch until the next run; panics after RunLevels.
func (s *MSBFSScratch) DistRow(i int) []int32 {
	if !s.sigmaOK {
		panic("graph: DistRow called without a preceding RunSigma")
	}
	return s.dist[i*s.n : (i+1)*s.n]
}

// SigmaRow returns sources[i]'s shortest-path-count row after RunSigma:
// row[v] counts the shortest paths from sources[i] to v (0 when unreached).
// Owned by the scratch until the next run; panics after RunLevels.
func (s *MSBFSScratch) SigmaRow(i int) []float64 {
	if !s.sigmaOK {
		panic("graph: SigmaRow called without a preceding RunSigma")
	}
	return s.sigma[i*s.n : (i+1)*s.n]
}

// LevelCounts returns sources[i]'s per-level reach counts: counts[h] nodes
// sit at distance exactly h, and len(counts) is the source's eccentricity
// plus one. The slice is owned by the scratch and valid until the next run.
// Valid after RunLevels only: the sigma kernel's consumers read full
// distance rows instead, so RunSigma skips the per-discovery count
// bookkeeping and these accessors panic.
func (s *MSBFSScratch) LevelCounts(i int) []int32 {
	s.checkCounts()
	return s.counts[i]
}

func (s *MSBFSScratch) checkCounts() {
	if s.sigmaOK {
		panic("graph: level counts are not maintained by RunSigma; use RunLevels")
	}
}

// ApproxDiameter estimates g's diameter with a double BFS sweep (BFS from
// node 0, then from the farthest node found): a classic lower bound that is
// exact on trees and within a small factor on the paper's graphs.
// Distortion's Brandes election and the link-value sigma batches use it to
// route high-diameter graphs (lattices) onto the scalar path, where
// bit-parallel batching loses (mask traffic repeats per level while
// frontiers stay thin). The ball engine's distance sweeps route on the
// first leg's 90th-percentile distance instead, which a few long chains do
// not move. Deterministic; costs two traversals on s's scratch.
func ApproxDiameter(g *Graph, s *BFSScratch) int {
	if g.NumNodes() == 0 {
		return 0
	}
	order := s.BFS(g, 0)
	far := order[len(order)-1]
	order = s.BFS(g, far)
	return int(s.Dist(order[len(order)-1]))
}
