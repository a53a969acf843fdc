// Package flow implements maximum flow on unit-capacity undirected graphs
// with Dinic's algorithm. The paper's footnote 22 mentions computing "the
// expected max-flow between the center of a ball of size n and any node on
// the surface of the ball" among the extra metrics that corroborated its
// findings; internal/metrics builds that curve on top of this package. By
// Menger's theorem the unit-capacity max flow equals the number of
// edge-disjoint paths, so this doubles as an edge-connectivity probe.
package flow

import (
	"topocmp/internal/graph"
)

// arc is one direction of an undirected unit-capacity edge; arcs are stored
// in pairs so arc i's reverse is i^1.
type arc struct {
	to  int32
	cap int8
}

// Network is a reusable Dinic solver. The zero value is empty; Reset loads
// a graph into it, recycling every internal buffer (arcs, the head CSR, the
// level/iter/queue scratch), so one solver can sweep the surface samples of
// thousands of ball subgraphs without per-ball allocation. A Network is not
// safe for concurrent use; give each worker its own (the ball engine pools
// one per worker).
type Network struct {
	n    int
	arcs []arc
	// hoff/hadj form the per-node arc-index CSR: node v's outgoing arcs
	// are hadj[hoff[v]:hoff[v+1]].
	hoff  []int32
	hadj  []int32
	level []int32
	iter  []int32 // per-node cursor into hadj, absolute positions
	queue []int32
}

// Reset loads g into the network, replacing whatever graph it previously
// held. Buffers are reused; only growth beyond the high-water mark
// allocates. Arcs are laid out with undirected edges in (U,V) order, each
// contributing the forward arc to U's list and the reverse arc to V's list.
func (nw *Network) Reset(g *graph.Graph) {
	n := g.NumNodes()
	m2 := 2 * g.NumEdges()
	nw.n = n
	nw.arcs = growArc(nw.arcs, m2)
	nw.hoff = grow32(nw.hoff, n+1)
	nw.hadj = grow32(nw.hadj, m2)
	nw.level = grow32(nw.level, n)
	nw.iter = grow32(nw.iter, n)
	off := int32(0)
	for v := int32(0); v < int32(n); v++ {
		nw.hoff[v] = off
		off += int32(g.Degree(v))
	}
	nw.hoff[n] = off
	// iter doubles as the CSR fill cursor during the build.
	copy(nw.iter, nw.hoff[:n])
	na := int32(0)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				// Undirected unit edge: capacity 1 in each direction.
				nw.arcs[na] = arc{to: v, cap: 1}
				nw.arcs[na+1] = arc{to: u, cap: 1}
				nw.hadj[nw.iter[u]] = na
				nw.iter[u]++
				nw.hadj[nw.iter[v]] = na + 1
				nw.iter[v]++
				na += 2
			}
		}
	}
}

// reset restores all arc capacities to 1.
func (nw *Network) reset() {
	for i := range nw.arcs {
		nw.arcs[i].cap = 1
	}
}

// MaxFlow computes the maximum unit-capacity flow (= number of
// edge-disjoint paths) from s to t. The network is reusable: capacities are
// reset on each call.
func (nw *Network) MaxFlow(s, t int32) int {
	if s == t {
		return 0
	}
	nw.reset()
	total := 0
	for nw.bfs(s, t) {
		copy(nw.iter, nw.hoff[:nw.n])
		for {
			f := nw.dfs(s, t)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

func (nw *Network) bfs(s, t int32) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.queue = append(nw.queue[:0], s)
	nw.level[s] = 0
	for head := 0; head < len(nw.queue); head++ {
		u := nw.queue[head]
		for _, ai := range nw.hadj[nw.hoff[u]:nw.hoff[u+1]] {
			a := nw.arcs[ai]
			if a.cap > 0 && nw.level[a.to] == -1 {
				nw.level[a.to] = nw.level[u] + 1
				nw.queue = append(nw.queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *Network) dfs(u, t int32) int {
	if u == t {
		return 1
	}
	for ; nw.iter[u] < nw.hoff[u+1]; nw.iter[u]++ {
		ai := nw.hadj[nw.iter[u]]
		a := &nw.arcs[ai]
		if a.cap > 0 && nw.level[a.to] == nw.level[u]+1 {
			if nw.dfs(a.to, t) > 0 {
				a.cap--
				nw.arcs[ai^1].cap++
				return 1
			}
		}
	}
	return 0
}

func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growArc(buf []arc, n int) []arc {
	if cap(buf) < n {
		return make([]arc, n)
	}
	return buf[:n]
}
