// Package partition implements balanced graph bisection in the style of
// Karypis–Kumar multilevel partitioning ("A Fast and High Quality Multilevel
// Scheme for Partitioning Irregular Graphs", SISC 1998), the heuristic the
// paper uses ([25]) to compute its resilience metric: the minimum cut-set
// size of a balanced bi-partition.
//
// The pipeline is the classic three phases:
//
//  1. Coarsening by heavy-edge matching until the graph is small.
//  2. Initial bisection of the coarsest graph by greedy BFS region growing
//     from several seeds, keeping the best cut.
//  3. Uncoarsening with Fiduccia–Mattheyses refinement (hill climbing plus
//     negative-gain exploration with rollback to the best prefix) at each
//     level, moving nodes in (gain descending, node id ascending) order
//     off a gain-bucket queue.
//
// All internal iteration orders are deterministic, so a fixed Options.Rand
// reproduces the same partition.
//
// The solver is allocation-free in steady state: every phase runs on a
// Workspace whose level arena (CSR-flattened weighted graphs, matching and
// side buffers, the FM gain buckets) is grown once and recycled across calls.
// Resilience partitions hundreds of thousands of ball subgraphs per suite,
// so hot paths hold a Workspace (one per worker — it is not safe for
// concurrent use) and call CutSizeWith / BisectWith; the package-level
// CutSize / Bisect wrappers build a throwaway Workspace per call.
package partition

import (
	"math/rand"

	"topocmp/internal/graph"
)

// wedge is a weighted adjacency entry.
type wedge struct {
	to int32
	w  int32
}

// level is one rung of the multilevel hierarchy: a CSR-flattened weighted
// graph (node weights count collapsed original vertices, edge weights count
// collapsed original edges; adjacency runs are sorted by target id for
// deterministic iteration), the cmap projecting this level's nodes onto the
// next-coarser level, and this level's side buffer. All slices are owned by
// the workspace and recycled across calls.
type level struct {
	nodeW []int32
	off   []int32
	adj   []wedge
	cmap  []int32
	side  []bool
}

func (l *level) numNodes() int { return len(l.nodeW) }

func (l *level) edgesOf(v int32) []wedge { return l.adj[l.off[v]:l.off[v+1]] }

func (l *level) totalNodeW() int {
	t := 0
	for _, x := range l.nodeW {
		t += int(x)
	}
	return t
}

// fromGraph loads g into the level as the finest rung: unit node and edge
// weights, adjacency copied straight out of g's CSR (already sorted).
func (l *level) fromGraph(g *graph.Graph) {
	n := g.NumNodes()
	l.nodeW = growInt32(l.nodeW, n)
	for i := range l.nodeW {
		l.nodeW[i] = 1
	}
	l.off = growInt32(l.off, n+1)
	l.adj = growWedge(l.adj, 2*g.NumEdges())
	idx := int32(0)
	for v := int32(0); v < int32(n); v++ {
		l.off[v] = idx
		for _, u := range g.Neighbors(v) {
			l.adj[idx] = wedge{u, 1}
			idx++
		}
	}
	l.off[n] = idx
}

// Workspace holds every buffer the multilevel pipeline needs, grown on
// first use and recycled across calls, so steady-state bisection does not
// allocate. Its FM gain-bucket queue needs (2D+1)·⌈n/64⌉ bitmap words for
// a level of n nodes, D the level's largest weighted degree, and keeps up
// to twice the largest need it has seen.
// A Workspace is not safe for concurrent use; give each worker its own (the
// ball engine pools one per worker).
type Workspace struct {
	levels []*level

	perm    []int   // coarsening visit order (Fisher–Yates into a reused buffer)
	match   []int32 // heavy-edge matching partner
	memberA []int32 // finest member of each coarse node
	memberB []int32 // second member, -1 for unmatched singletons

	cursor []int32 // next free slot of each coarse row during contraction

	visit graph.Stamp // region-growing visited marks, one epoch per seed
	queue []int32
	cand  []bool // candidate side assignment per region-growing seed

	gain    []int // FM gains
	moved   []bool
	history []int32
	moves   graph.BucketQueue // FM move queue keyed by gain
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// Options tunes the bisection.
type Options struct {
	// Balance is the maximum allowed share of total node weight on the
	// heavier side; the paper's "approximately n/2" corresponds to ~0.55.
	Balance float64
	// Seeds is the number of region-growing starts tried on the coarsest
	// graph.
	Seeds int
	// Refinements is the number of FM passes per uncoarsening level.
	Refinements int
	// Rand drives tie-breaking; nil uses a fixed seed.
	Rand *rand.Rand
}

func (o *Options) defaults() {
	if o.Balance == 0 {
		o.Balance = 0.55
	}
	if o.Seeds == 0 {
		o.Seeds = 4
	}
	if o.Refinements == 0 {
		o.Refinements = 4
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
}

// Bisect computes a balanced bipartition of g and returns the cut size (the
// number of edges crossing the partition) and the side assignment. Graphs
// with fewer than two nodes have cut 0. One-shot convenience over a
// throwaway Workspace; hot paths should hold a Workspace and call
// BisectWith.
func Bisect(g *graph.Graph, opts Options) (int, []bool) {
	return BisectWith(NewWorkspace(), g, opts)
}

// CutSize is a convenience wrapper returning only the cut value.
func CutSize(g *graph.Graph, opts Options) int {
	c, _ := bisect(NewWorkspace(), g, opts)
	return c
}

// BisectWith is Bisect running on ws's recycled buffers. The returned side
// slice is freshly allocated (it does not alias the workspace), so callers
// may retain it across further calls.
func BisectWith(ws *Workspace, g *graph.Graph, opts Options) (int, []bool) {
	cut, side := bisect(ws, g, opts)
	out := make([]bool, g.NumNodes())
	copy(out, side)
	return cut, out
}

// CutSizeWith is CutSize running on ws's recycled buffers; it performs no
// per-call allocation once the workspace is warm.
func CutSizeWith(ws *Workspace, g *graph.Graph, opts Options) int {
	c, _ := bisect(ws, g, opts)
	return c
}

// bisect runs the three phases; the returned side aliases workspace storage
// and is valid until the next call.
func bisect(ws *Workspace, g *graph.Graph, opts Options) (int, []bool) {
	opts.defaults()
	n := g.NumNodes()
	if n < 2 {
		l0 := ws.level0()
		l0.side = growBool(l0.side, n)
		for i := range l0.side {
			l0.side[i] = false
		}
		return 0, l0.side
	}
	const coarsestSize = 48
	l0 := ws.level0()
	l0.fromGraph(g)
	depth := 0
	cur := l0
	for cur.numNodes() > coarsestSize {
		next := ws.levelAt(depth + 1)
		ws.coarsen(cur, next, opts.Rand)
		if next.numNodes() >= cur.numNodes() {
			break // no progress
		}
		depth++
		cur = next
	}
	cur.side = growBool(cur.side, cur.numNodes())
	ws.initialBisection(cur, cur.side, &opts)
	ws.refine(cur, cur.side, &opts)
	for i := depth - 1; i >= 0; i-- {
		lv := ws.levels[i]
		lv.side = growBool(lv.side, lv.numNodes())
		for v := range lv.side {
			lv.side[v] = ws.levels[i+1].side[lv.cmap[v]]
		}
		ws.refine(lv, lv.side, &opts)
	}
	return cutOf(l0, l0.side), l0.side
}

func (ws *Workspace) level0() *level { return ws.levelAt(0) }

func (ws *Workspace) levelAt(i int) *level {
	for len(ws.levels) <= i {
		ws.levels = append(ws.levels, &level{})
	}
	return ws.levels[i]
}

// permInto refills ws.perm with opts.Rand.Perm(n) using the exact
// math/rand.Perm recurrence, so the RNG stream (and therefore every
// downstream tie-break) is bit-identical to the historical Perm call while
// reusing one buffer.
func (ws *Workspace) permInto(r *rand.Rand, n int) []int {
	if cap(ws.perm) < n {
		ws.perm = make([]int, n)
	}
	m := ws.perm[:n]
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// coarsen performs heavy-edge matching on fine (visit nodes in random
// order, match each unmatched node with its unmatched neighbor of heaviest
// edge weight, smallest id on ties) and contracts the matching into coarse.
func (ws *Workspace) coarsen(fine, coarse *level, r *rand.Rand) {
	n := fine.numNodes()
	ws.match = growInt32(ws.match, n)
	match := ws.match
	for i := range match {
		match[i] = -1
	}
	for _, ui := range ws.permInto(r, n) {
		u := int32(ui)
		if match[u] != -1 {
			continue
		}
		bestV, bestW := int32(-1), int32(-1)
		for _, e := range fine.edgesOf(u) {
			if match[e.to] == -1 && e.to != u && e.w > bestW {
				bestV, bestW = e.to, e.w
			}
		}
		if bestV >= 0 {
			match[u] = bestV
			match[bestV] = u
		} else {
			match[u] = u
		}
	}
	fine.cmap = growInt32(fine.cmap, n)
	cmap := fine.cmap
	for i := range cmap {
		cmap[i] = -1
	}
	ws.memberA = growInt32(ws.memberA, n)
	ws.memberB = growInt32(ws.memberB, n)
	next := int32(0)
	for u := int32(0); u < int32(n); u++ {
		if cmap[u] != -1 {
			continue
		}
		cmap[u] = next
		ws.memberA[next] = u
		ws.memberB[next] = -1
		if match[u] != u && match[u] >= 0 {
			cmap[match[u]] = next
			ws.memberB[next] = match[u]
		}
		next++
	}
	nc := int(next)

	ws.contract(fine, coarse, nc)
}

// contract builds coarse from the matching that coarsen left in fine.cmap
// and ws.memberA/memberB. The coarse graph is symmetric, so scattering each
// coarse edge (cu, cv) into cv's row in ascending cu emits every row
// already sorted by target id: row cv reserves as many slots as its
// members' fine degrees, the fine edges of cu's members land in their
// targets' rows while cu is visited, a repeat of cu in a row is that row's
// last entry and merges into it, and a final pass closes the gaps left by
// merges and matched pairs. Weights are integer sums, so every row equals
// the historical stamp-merged, sorted run (contractSorted in
// contract_test.go).
func (ws *Workspace) contract(fine, coarse *level, nc int) {
	coarse.nodeW = growInt32(coarse.nodeW, nc)
	coarse.off = growInt32(coarse.off, nc+1)
	ws.cursor = growInt32(ws.cursor, nc)
	off, cursor, memberA, memberB := coarse.off, ws.cursor, ws.memberA[:nc], ws.memberB[:nc]
	slots := int32(0)
	for cv := range memberA {
		off[cv] = slots
		cursor[cv] = slots
		a, b := memberA[cv], memberB[cv]
		w := fine.nodeW[a]
		slots += fine.off[a+1] - fine.off[a]
		if b >= 0 {
			w += fine.nodeW[b]
			slots += fine.off[b+1] - fine.off[b]
		}
		coarse.nodeW[cv] = w
	}
	coarse.adj = growWedge(coarse.adj, int(slots))
	adj, cmap := coarse.adj, fine.cmap
	scatter := func(cu, u int32) {
		for _, e := range fine.edgesOf(u) {
			cv := cmap[e.to]
			if cv == cu {
				continue
			}
			c := cursor[cv]
			if c > off[cv] && adj[c-1].to == cu {
				adj[c-1].w += e.w
			} else {
				adj[c] = wedge{cu, e.w}
				cursor[cv] = c + 1
			}
		}
	}
	for cu, a := range memberA {
		scatter(int32(cu), a)
		if b := memberB[cu]; b >= 0 {
			scatter(int32(cu), b)
		}
	}
	end := int32(0)
	for cv := range memberA {
		start := off[cv]
		off[cv] = end
		for i := start; i < cursor[cv]; i++ {
			adj[end] = adj[i]
			end++
		}
	}
	off[nc] = end
	coarse.adj = adj[:end]
}

// initialBisection grows a region by BFS from several random seeds and
// writes the assignment with the smallest cut into best.
func (ws *Workspace) initialBisection(l *level, best []bool, opts *Options) {
	n := l.numNodes()
	total := l.totalNodeW()
	ws.cand = growBool(ws.cand, n)
	bestCut := -1
	for s := 0; s < opts.Seeds; s++ {
		seed := int32(opts.Rand.Intn(n))
		ws.visit.Begin(n)
		cand := ws.cand
		for i := range cand {
			cand[i] = false
		}
		ws.queue = append(ws.queue[:0], seed)
		ws.visit.Visit(seed)
		grown := 0
		for head := 0; head < len(ws.queue) && grown*2 < total; head++ {
			u := ws.queue[head]
			cand[u] = true
			grown += int(l.nodeW[u])
			for _, e := range l.edgesOf(u) {
				if ws.visit.Visit(e.to) {
					ws.queue = append(ws.queue, e.to)
				}
			}
		}
		for v := int32(0); grown*2 < total && v < int32(n); v++ {
			if !cand[v] {
				cand[v] = true
				grown += int(l.nodeW[v])
			}
		}
		cut := cutOf(l, cand)
		if bestCut == -1 || cut < bestCut {
			bestCut = cut
			copy(best, cand)
		}
	}
}

// refine runs Fiduccia–Mattheyses passes: each pass tentatively moves every
// node once in best-gain-first order (negative gains included, balance
// respected), then rolls back to the prefix of moves with the smallest cut.
// A node the balance check rejects leaves the queue until a neighbour's
// move changes its gain.
func (ws *Workspace) refine(l *level, side []bool, opts *Options) {
	n := l.numNodes()
	total := l.totalNodeW()
	maxSide := int(opts.Balance * float64(total))
	if maxSide*2 < total {
		maxSide = (total + 1) / 2
	}
	ws.gain = growInt(ws.gain, n)
	ws.moved = growBool(ws.moved, n)
	gain, moved, q := ws.gain, ws.moved, &ws.moves
	for pass := 0; pass < opts.Refinements; pass++ {
		weightTrue := 0
		for v := 0; v < n; v++ {
			if side[v] {
				weightTrue += int(l.nodeW[v])
			}
		}
		maxDeg := 0
		for v := int32(0); v < int32(n); v++ {
			g, deg := 0, 0
			for _, e := range l.edgesOf(v) {
				deg += int(e.w)
				if side[e.to] == side[v] {
					g -= int(e.w)
				} else {
					g += int(e.w)
				}
			}
			gain[v] = g
			maxDeg = max(maxDeg, deg)
		}
		q.Reset(n, -maxDeg, maxDeg)
		for v := int32(0); v < int32(n); v++ {
			q.Push(v, gain[v])
		}
		for i := range moved {
			moved[i] = false
		}
		history := ws.history[:0]
		cumGain, bestGain, bestPrefix := 0, 0, 0
		for {
			v, ok := q.Pop()
			if !ok {
				break
			}
			var newTrue int
			if side[v] {
				newTrue = weightTrue - int(l.nodeW[v])
			} else {
				newTrue = weightTrue + int(l.nodeW[v])
			}
			if newTrue > maxSide || total-newTrue > maxSide {
				continue
			}
			weightTrue = newTrue
			side[v] = !side[v]
			moved[v] = true
			history = append(history, v)
			cumGain += gain[v]
			gain[v] = -gain[v]
			if cumGain > bestGain {
				bestGain = cumGain
				bestPrefix = len(history)
			}
			for _, e := range l.edgesOf(v) {
				if moved[e.to] {
					continue
				}
				old := gain[e.to]
				if side[e.to] == side[v] {
					gain[e.to] -= 2 * int(e.w)
				} else {
					gain[e.to] += 2 * int(e.w)
				}
				q.Remove(e.to, old) // a no-op once a balance rejection took it out
				q.Push(e.to, gain[e.to])
			}
		}
		// Roll back moves beyond the best prefix.
		for i := len(history) - 1; i >= bestPrefix; i-- {
			side[history[i]] = !side[history[i]]
		}
		ws.history = history[:0]
		if bestGain == 0 {
			break
		}
	}
}

func cutOf(l *level, side []bool) int {
	cut := 0
	for u := int32(0); u < int32(l.numNodes()); u++ {
		for _, e := range l.edgesOf(u) {
			if u < e.to && side[u] != side[e.to] {
				cut += int(e.w)
			}
		}
	}
	return cut
}

// growInt32 returns buf resliced to length n, reallocating only when the
// capacity is short. Contents are unspecified.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// growWedge is growInt32 for adjacency arrays, which grow to twice the
// need: a centre's balls arrive in increasing size, and exact growth would
// reallocate every level's adjacency for nearly every ball.
func growWedge(buf []wedge, n int) []wedge {
	if cap(buf) < n {
		return make([]wedge, n, 2*n)
	}
	return buf[:n]
}
