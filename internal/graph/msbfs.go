package graph

import (
	"fmt"
	"math/bits"
)

// MSBFSWordBits is the number of sources one uint64 mask word tracks.
const MSBFSWordBits = 64

// MSBFSMaxWords bounds the mask width: a batch of up to 64 sources uses one
// word per node, a wider one this many.
const MSBFSMaxWords = 4

// MSBFSWidth is the single-word batch width, kept as the conservative
// default for callers that size their own batches.
const MSBFSWidth = MSBFSWordBits

// MSBFSMaxWidth is the maximum number of sources one bit-parallel batch
// processes with multi-word masks.
const MSBFSMaxWidth = MSBFSWordBits * MSBFSMaxWords

// MSBFSScratch runs bit-parallel multi-source breadth-first traversals
// (MS-BFS style): up to MSBFSMaxWidth sources advance through one shared
// CSR sweep per level, tracked by per-node seen/frontier/next mask strips
// where bit i (word i/64, bit i%64) belongs to sources[i]. The metric
// sweeps (expansion, eccentricity, path length, hop plots) are
// embarrassingly source-parallel but were paying one full adjacency scan
// per source; a batch pays one scan per level for the whole strip, which is
// what makes the paper-scale sweeps fast on a single core. Batches of up to
// 64 sources use one-word strips; wider ones use MSBFSMaxWords-word strips
// with the word loops unrolled. A run keeps per-level reach counts only,
// never an nsrc×n distance matrix.
//
// Each level runs in one of two directions. Top-down pushes the frontier
// strips of the frontier's nodes to their neighbours. Bottom-up visits, in
// node order, every node that some source has not reached yet and ORs its
// neighbours' frontier strips, stopping once they cover every source still
// missing there. pullLevel picks the direction per level from the
// frontier's edges and the edges of the nodes some source has not reached.
//
// A run sweeps a LevelGraph, the graph with its pendant leaves folded into
// their anchors: a sweep that consumes a frontier node adds the node's
// leaf count, times its frontier bits, to the level it builds, and a leaf
// source runs from its anchor, its row shifted by one level afterwards.
// The counts are those of the graph itself.
//
// A run clears the seen strips it uses, O(n) words of the folded graph;
// the frontier and next strips are all zero again when a run returns. The
// sources are checked before any strip changes, so no run stops part way.
// A scratch is not safe for concurrent use (give each worker its own), and
// LevelCounts reads buffers owned by the scratch that are valid only until
// the next run.
type MSBFSScratch struct {
	words    int                   // words per node strip: 1, or MSBFSMaxWords past 64 sources
	full     [MSBFSMaxWords]uint64 // the seen strip of a node every source has reached
	seen     []uint64              // strided strips: word w of node v at [v*words+w]
	frontier []uint64              // bit i set ⇔ v is in i's frontier at the current level
	next     []uint64              // the next level's frontier as it forms
	cur, nxt []int32               // the current and the next level's frontier nodes
	open     []int32               // bottom-up candidates in node order: nodes some source has not reached
	// planes[w][k] holds bit k of the level's count for each source of
	// word w; top is the number of planes in use. Counts stay below 2^31.
	planes [MSBFSMaxWords][32]uint64
	top    int
	counts [][]int32 // counts[i][h] = nodes at distance exactly h from sources[i]
	src    []int32   // the sources' nodes in the folded graph
}

// msbfsRoute names how a run picks each level's direction. Both directions
// compute the same next frontier, so the route only changes speed.
type msbfsRoute int8

const (
	// msbfsPerLevel picks each level's direction with pullLevel: the only
	// production setting. The forced routes serve the differential tests
	// (export_test.go).
	msbfsPerLevel msbfsRoute = iota
	msbfsTopDown
	msbfsBottomUp
)

// Constants of the direction rule (pullLevel). DESIGN.md's direction table
// holds the measurements behind them.
const (
	// A level runs bottom-up only if the frontier's edges exceed
	// msbfsPullNum/msbfsPullDen of the bottom-up scan: the edges of the
	// nodes some source has not reached, plus the candidate list.
	msbfsPullNum, msbfsPullDen = 2, 5
	// ... and the frontier holds at least 1/msbfsPullNodes of the nodes.
	// The long tails of a sweep, where thin frontiers meet the last few
	// unreached nodes, stay top-down.
	msbfsPullNodes = 16
)

// NewMSBFSScratch returns an empty scratch; buffers grow on first use.
func NewMSBFSScratch() *MSBFSScratch { return &MSBFSScratch{} }

// begin sizes the buffers for an n-node graph and nsrc sources, and clears
// the seen strips. The frontier and next strips are all zero at rest.
func (s *MSBFSScratch) begin(n, nsrc int) {
	s.words = 1
	if nsrc > MSBFSWordBits {
		s.words = MSBFSMaxWords
	}
	if cap(s.cur) < n {
		s.cur = make([]int32, 0, n)
		s.nxt = make([]int32, 0, n)
		s.open = make([]int32, 0, n)
	}
	need := n * s.words
	if len(s.seen) < need {
		s.seen = make([]uint64, need)
		s.frontier = make([]uint64, need)
		s.next = make([]uint64, need)
	} else {
		clear(s.seen[:need])
	}
	for w := range s.full {
		s.full[w] = 0
		if lo := w * MSBFSWordBits; lo < nsrc {
			s.full[w] = ^uint64(0) >> uint(MSBFSWordBits-min(nsrc-lo, MSBFSWordBits))
		}
	}
	for len(s.counts) < nsrc {
		s.counts = append(s.counts, nil)
	}
	for i := 0; i < nsrc; i++ {
		s.counts[i] = s.counts[i][:0]
	}
	s.cur = s.cur[:0]
	s.open = s.open[:0]
}

// RunLevels traverses the graph lg was built from, from all sources at
// once (1 to MSBFSMaxWidth of them, each a node of that graph; it panics
// otherwise). Afterwards LevelCounts(i) describes sources[i]'s traversal
// until the next run. The counts are exactly those of a scalar BFS per
// source on the graph.
func (s *MSBFSScratch) RunLevels(lg *LevelGraph, sources []int32) {
	s.run(lg, sources, msbfsPerLevel)
}

// run is RunLevels on the given route.
func (s *MSBFSScratch) run(lg *LevelGraph, sources []int32, route msbfsRoute) {
	if len(sources) == 0 || len(sources) > MSBFSMaxWidth {
		panic(fmt.Sprintf("graph: MSBFS batch of %d sources, want 1..%d", len(sources), MSBFSMaxWidth))
	}
	for _, src := range sources {
		if src < 0 || int(src) >= len(lg.id) {
			panic(fmt.Sprintf("graph: MSBFS source %d outside [0, %d)", src, len(lg.id)))
		}
	}
	s.src = s.src[:0]
	for _, src := range sources {
		v := lg.id[src]
		if v < 0 {
			v = ^v // a leaf runs from its anchor
		}
		s.src = append(s.src, v)
	}
	s.sweep(lg, route)
	// A leaf's distances are its anchor's plus one, except its own (0) and
	// the anchor's (1): the anchor's row c becomes [1, 1, c[1]-1, c[2], ...].
	for i, src := range sources {
		if lg.id[src] < 0 {
			row := append(s.counts[i], 0)
			copy(row[2:], row[1:])
			row[1], row[2] = 1, row[2]-1
			s.counts[i] = row
		}
	}
}

// sweep runs the level sweeps of s.src over the folded graph.
func (s *MSBFSScratch) sweep(lg *LevelGraph, route msbfsRoute) {
	g := &lg.c
	n := g.NumNodes()
	s.begin(n, len(s.src))
	W := s.words
	for i, src := range s.src {
		word, bit := i/MSBFSWordBits, uint64(1)<<uint(i%MSBFSWordBits)
		base := int(src) * W
		if isZero(s.frontier[base : base+W]) {
			s.cur = append(s.cur, src)
		}
		s.seen[base+word] |= bit
		s.frontier[base+word] |= bit
		s.counts[i] = append(s.counts[i], 1)
	}
	// The direction rule's inputs: the adjacency lengths of the frontier's
	// nodes and of the nodes some source has not reached yet. After a
	// top-down level the frontier's edges are an estimate, kept as the
	// fraction frontierEdges/per (see below).
	frontierEdges, per, unreachedEdges := 0, 1, len(g.adj)
	for _, u := range s.cur {
		frontierEdges += g.Degree(u)
		if s.reachedByAll(u) {
			unreachedEdges -= g.Degree(u)
		}
	}
	pull, opened := false, false
	for len(s.cur) > 0 {
		switch route {
		case msbfsPerLevel:
			scan := unreachedEdges + n
			if opened {
				scan = unreachedEdges + len(s.open)
			}
			pull = pullLevel(frontierEdges, per, len(s.cur), scan, n)
			if pull && per != 1 {
				// Check an estimated pull against the frontier's edges.
				frontierEdges, per = 0, 1
				for _, u := range s.cur {
					frontierEdges += g.Degree(u)
				}
				pull = pullLevel(frontierEdges, per, len(s.cur), scan, n)
			}
		default:
			pull = route == msbfsBottomUp
		}
		s.nxt = s.nxt[:0]
		var reached int
		if pull {
			if !opened {
				for v := int32(0); v < int32(n); v++ {
					s.open = append(s.open, v)
				}
				opened = true
			}
			if W == 1 {
				frontierEdges, reached = s.pullOne(lg)
			} else {
				frontierEdges, reached = s.pullFour(lg)
			}
			per = 1
		} else {
			// Top-down sums the current frontier's edges for free; the
			// next frontier's are estimated in proportion to its nodes,
			// frontierEdges·len(nxt)/len(cur).
			if W == 1 {
				frontierEdges, reached = s.pushOne(lg)
			} else {
				frontierEdges, reached = s.pushFour(lg)
			}
			frontierEdges *= len(s.nxt)
			per = len(s.cur)
		}
		s.flush()
		unreachedEdges -= reached
		s.frontier, s.next = s.next, s.frontier
		s.cur, s.nxt = s.nxt, s.cur
	}
}

// pullLevel is the direction rule: whether a level runs bottom-up, given
// the frontier's edges (frontierEdges/per of them) and nodes, the length of
// the bottom-up scan (the edges of the nodes some source has not reached
// plus the candidate list) and the graph's node count. Top-down does a
// read-modify-write of two strips per frontier edge; bottom-up reads one
// frontier strip per edge it scans.
func pullLevel(frontierEdges, per, frontierNodes, scan, n int) bool {
	return frontierEdges*msbfsPullDen > scan*msbfsPullNum*per && frontierNodes*msbfsPullNodes >= n
}

// isZero reports whether every word of strip is zero.
func isZero(strip []uint64) bool {
	for _, x := range strip {
		if x != 0 {
			return false
		}
	}
	return true
}

// reachedByAll reports whether every source of the run has reached v.
func (s *MSBFSScratch) reachedByAll(v int32) bool {
	W := s.words
	for w, x := range s.seen[int(v)*W : int(v)*W+W] {
		if x != s.full[w] {
			return false
		}
	}
	return true
}

// The sweeps below keep three invariants between levels: next is all zero;
// frontier is nonzero exactly at cur's nodes; seen already holds every bit
// that reached a node, the current level's included. Each sweep fills next
// and the nxt list, folds the new bits into seen and into the level's
// counts, adds the leaves of the frontier nodes it consumed to those counts
// and clears their strips, and returns a frontier edge count and the edges
// of the nodes that every source has now reached. The caller swaps
// frontier and next.

// pushOne is the single-word top-down sweep. It returns the current
// frontier's edges besides the reached ones.
func (s *MSBFSScratch) pushOne(lg *LevelGraph) (curEdges, reachedEdges int) {
	g := &lg.c
	full := s.full[0]
	var ones, twos uint64
	for _, u := range s.cur {
		fu := s.frontier[u]
		s.frontier[u] = 0
		if c := lg.leaves[u]; c != 0 {
			ones, twos = s.leavesOne(ones, twos, fu, c)
		}
		nb := g.Neighbors(u)
		curEdges += len(nb)
		for _, v := range nb {
			sv := s.seen[v]
			add := fu &^ sv
			if add == 0 {
				continue
			}
			if s.next[v] == 0 {
				s.nxt = append(s.nxt, v)
			}
			s.next[v] |= add
			s.seen[v] = sv | add
			ones, twos = s.countOne(ones, twos, add)
			if sv|add == full {
				reachedEdges += g.Degree(v)
			}
		}
	}
	s.keepOne(ones, twos)
	return curEdges, reachedEdges
}

// pushFour is the top-down sweep over four-word strips.
func (s *MSBFSScratch) pushFour(lg *LevelGraph) (curEdges, reachedEdges int) {
	g := &lg.c
	f := s.full
	for _, u := range s.cur {
		fu := (*[MSBFSMaxWords]uint64)(s.frontier[int(u)*MSBFSMaxWords:])
		if c := lg.leaves[u]; c != 0 {
			s.leavesFour(fu, c)
		}
		f0, f1, f2, f3 := fu[0], fu[1], fu[2], fu[3]
		*fu = [MSBFSMaxWords]uint64{}
		nb := g.Neighbors(u)
		curEdges += len(nb)
		for _, v := range nb {
			sv := (*[MSBFSMaxWords]uint64)(s.seen[int(v)*MSBFSMaxWords:])
			a0, a1, a2, a3 := f0&^sv[0], f1&^sv[1], f2&^sv[2], f3&^sv[3]
			if a0|a1|a2|a3 == 0 {
				continue
			}
			nv := (*[MSBFSMaxWords]uint64)(s.next[int(v)*MSBFSMaxWords:])
			if nv[0]|nv[1]|nv[2]|nv[3] == 0 {
				s.nxt = append(s.nxt, v)
			}
			nv[0], nv[1], nv[2], nv[3] = nv[0]|a0, nv[1]|a1, nv[2]|a2, nv[3]|a3
			s0, s1, s2, s3 := sv[0]|a0, sv[1]|a1, sv[2]|a2, sv[3]|a3
			sv[0], sv[1], sv[2], sv[3] = s0, s1, s2, s3
			s.carry(0, 0, a0)
			s.carry(1, 0, a1)
			s.carry(2, 0, a2)
			s.carry(3, 0, a3)
			if s0 == f[0] && s1 == f[1] && s2 == f[2] && s3 == f[3] {
				reachedEdges += g.Degree(v)
			}
		}
	}
	return curEdges, reachedEdges
}

// pullOne is the single-word bottom-up sweep. It drops from the open list
// every node all sources have reached, and stops a node's scan once its
// neighbours' frontier bits cover every source still missing there. It
// returns the new frontier's edges besides the reached ones.
func (s *MSBFSScratch) pullOne(lg *LevelGraph) (frontierEdges, reachedEdges int) {
	g := &lg.c
	full := s.full[0]
	var ones, twos uint64
	open := s.open[:0]
	for _, v := range s.open {
		sv := s.seen[v]
		miss := full &^ sv
		if miss == 0 {
			continue
		}
		open = append(open, v)
		nb := g.Neighbors(v)
		rest := miss
		for _, u := range nb {
			if rest &^= s.frontier[u]; rest == 0 {
				break
			}
		}
		add := miss &^ rest
		if add == 0 {
			continue
		}
		s.next[v] = add
		s.seen[v] = sv | add
		s.nxt = append(s.nxt, v)
		ones, twos = s.countOne(ones, twos, add)
		frontierEdges += len(nb)
		if rest == 0 {
			reachedEdges += len(nb)
		}
	}
	for _, u := range s.cur {
		if c := lg.leaves[u]; c != 0 {
			ones, twos = s.leavesOne(ones, twos, s.frontier[u], c)
		}
		s.frontier[u] = 0
	}
	s.keepOne(ones, twos)
	s.open = open
	return frontierEdges, reachedEdges
}

// pullFour is the bottom-up sweep over four-word strips.
func (s *MSBFSScratch) pullFour(lg *LevelGraph) (frontierEdges, reachedEdges int) {
	g := &lg.c
	f := s.full
	open := s.open[:0]
	for _, v := range s.open {
		sv := (*[MSBFSMaxWords]uint64)(s.seen[int(v)*MSBFSMaxWords:])
		m0, m1, m2, m3 := f[0]&^sv[0], f[1]&^sv[1], f[2]&^sv[2], f[3]&^sv[3]
		if m0|m1|m2|m3 == 0 {
			continue
		}
		open = append(open, v)
		nb := g.Neighbors(v)
		r0, r1, r2, r3 := m0, m1, m2, m3
		for _, u := range nb {
			fu := (*[MSBFSMaxWords]uint64)(s.frontier[int(u)*MSBFSMaxWords:])
			r0, r1, r2, r3 = r0&^fu[0], r1&^fu[1], r2&^fu[2], r3&^fu[3]
			if r0|r1|r2|r3 == 0 {
				break
			}
		}
		a0, a1, a2, a3 := m0&^r0, m1&^r1, m2&^r2, m3&^r3
		if a0|a1|a2|a3 == 0 {
			continue
		}
		nv := (*[MSBFSMaxWords]uint64)(s.next[int(v)*MSBFSMaxWords:])
		nv[0], nv[1], nv[2], nv[3] = a0, a1, a2, a3
		sv[0], sv[1], sv[2], sv[3] = sv[0]|a0, sv[1]|a1, sv[2]|a2, sv[3]|a3
		s.nxt = append(s.nxt, v)
		s.carry(0, 0, a0)
		s.carry(1, 0, a1)
		s.carry(2, 0, a2)
		s.carry(3, 0, a3)
		frontierEdges += len(nb)
		if r0|r1|r2|r3 == 0 {
			reachedEdges += len(nb)
		}
	}
	s.open = open
	for _, u := range s.cur {
		fu := (*[MSBFSMaxWords]uint64)(s.frontier[int(u)*MSBFSMaxWords:])
		if c := lg.leaves[u]; c != 0 {
			s.leavesFour(fu, c)
		}
		*fu = [MSBFSMaxWords]uint64{}
	}
	return frontierEdges, reachedEdges
}

// carry adds x at plane k of word w's bit-sliced counts: a carry chain of
// a few word operations for all 64 sources of the word, where counting bit
// by bit would take one step per bit.
func (s *MSBFSScratch) carry(w, k int, x uint64) {
	p := &s.planes[w]
	for ; x != 0; k++ {
		p[k], x = p[k]^x, p[k]&x
	}
	s.top = max(s.top, k)
}

// countOne adds x to a one-word level's counts whose two low planes the
// sweep keeps in ones and twos, out of memory, and returns the new pair.
func (s *MSBFSScratch) countOne(ones, twos, x uint64) (uint64, uint64) {
	c := ones & x
	if c2 := twos & c; c2 != 0 {
		s.carry(0, 2, c2)
	}
	return ones ^ x, twos ^ c
}

// leavesOne adds c copies of x, c > 0, to a one-word level's counts whose
// two low planes are ones and twos: bit k of c adds x at plane k.
func (s *MSBFSScratch) leavesOne(ones, twos, x uint64, c int32) (uint64, uint64) {
	if c&1 != 0 {
		ones, twos = s.countOne(ones, twos, x)
	}
	if c&2 != 0 {
		if c2 := twos & x; c2 != 0 {
			s.carry(0, 2, c2)
		}
		twos ^= x
	}
	for k := 2; c>>k != 0; k++ {
		if c>>k&1 != 0 {
			s.carry(0, k, x)
		}
	}
	return ones, twos
}

// leavesFour adds c copies of the strip fu, c > 0, to a four-word level's
// counts: bit k of c adds each word at plane k.
func (s *MSBFSScratch) leavesFour(fu *[MSBFSMaxWords]uint64, c int32) {
	for k := 0; c != 0; k, c = k+1, c>>1 {
		if c&1 == 0 {
			continue
		}
		for w, x := range fu {
			if x != 0 {
				s.carry(w, k, x)
			}
		}
	}
}

// keepOne stores a one-word sweep's two low planes.
func (s *MSBFSScratch) keepOne(ones, twos uint64) {
	s.planes[0][0], s.planes[0][1] = ones, twos
	switch {
	case twos != 0:
		s.top = max(s.top, 2)
	case ones != 0:
		s.top = max(s.top, 1)
	}
}

// flush appends the level's count to the row of every source that reached
// a node at this level, and clears the planes.
func (s *MSBFSScratch) flush() {
	top := s.top
	for w := 0; w < s.words; w++ {
		p := &s.planes[w]
		var reached uint64
		for k := 0; k < top; k++ {
			reached |= p[k]
		}
		// A source's frontier drains monotonically, so its row stays
		// contiguous: it gains an entry at every level until it ends.
		for m := reached; m != 0; m &= m - 1 {
			b := uint(bits.TrailingZeros64(m))
			c := int32(p[0]>>b&1) | int32(p[1]>>b&1)<<1
			for k := 2; k < top; k++ {
				c |= int32(p[k]>>b&1) << uint(k)
			}
			i := w*MSBFSWordBits + int(b)
			s.counts[i] = append(s.counts[i], c)
		}
		for k := 0; k < top; k++ {
			p[k] = 0
		}
	}
	s.top = 0
}

// LevelCounts returns sources[i]'s per-level reach counts: counts[h] nodes
// sit at distance exactly h, and len(counts) is the source's eccentricity
// plus one. The slice is owned by the scratch and valid until the next run.
func (s *MSBFSScratch) LevelCounts(i int) []int32 {
	return s.counts[i]
}
