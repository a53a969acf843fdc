package partition

import (
	"math/rand"
	"slices"
	"testing"

	"topocmp/internal/graph"
)

// This file keeps the historical lazy-heap FM refinement as the reference
// for the gain-bucket queue. Both order moves by the strict key (gain
// descending, node id ascending), so they must make the same moves and
// leave the same side arrays.

// moveCand is a heap entry: a candidate node move with the gain it had when
// pushed. Entries go stale when neighboring moves change the gain; stale
// entries are discarded lazily on pop.
type moveCand struct {
	v    int32
	gain int
}

// gainLess, gainDown and gainUp are a typed port of container/heap's sift
// algorithms (same Init / Push / Pop element order).

func gainLess(h []moveCand, i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}

func gainDown(h []moveCand, i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && gainLess(h, j2, j1) {
			j = j2
		}
		if !gainLess(h, j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func gainUp(h []moveCand, j int) {
	for {
		i := (j - 1) / 2
		if i == j || !gainLess(h, j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// refineHeap is refine as it ran on the lazy binary heap: every gain change
// pushes a fresh entry, and a popped entry is skipped when its node has
// moved or its gain is stale.
func (ws *Workspace) refineHeap(l *level, side []bool, balance float64, passes int) {
	n := l.numNodes()
	total := l.totalNodeW()
	maxSide := int(balance * float64(total))
	if maxSide*2 < total {
		maxSide = (total + 1) / 2
	}
	gain := make([]int, n)
	moved := make([]bool, n)
	for pass := 0; pass < passes; pass++ {
		weightTrue := 0
		for v := 0; v < n; v++ {
			if side[v] {
				weightTrue += int(l.nodeW[v])
			}
		}
		for v := int32(0); v < int32(n); v++ {
			g := 0
			for _, e := range l.edgesOf(v) {
				if side[e.to] == side[v] {
					g -= int(e.w)
				} else {
					g += int(e.w)
				}
			}
			gain[v] = g
		}
		var h []moveCand
		for v := int32(0); v < int32(n); v++ {
			h = append(h, moveCand{v, gain[v]})
		}
		for i := len(h)/2 - 1; i >= 0; i-- {
			gainDown(h, i, len(h))
		}
		for i := range moved {
			moved[i] = false
		}
		var history []int32
		cumGain, bestGain, bestPrefix := 0, 0, 0
		for len(h) > 0 {
			last := len(h) - 1
			h[0], h[last] = h[last], h[0]
			gainDown(h, 0, last)
			c := h[last]
			h = h[:last]
			v := c.v
			if moved[v] || c.gain != gain[v] {
				continue
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
				if side[e.to] == side[v] {
					gain[e.to] -= 2 * int(e.w)
				} else {
					gain[e.to] += 2 * int(e.w)
				}
				h = append(h, moveCand{e.to, gain[e.to]})
				gainUp(h, len(h)-1)
			}
		}
		for i := len(history) - 1; i >= bestPrefix; i-- {
			side[history[i]] = !side[history[i]]
		}
		if bestGain == 0 {
			break
		}
	}
}

// bisectHeap runs bisect's phases with refineHeap in place of refine on a
// fresh workspace and returns a freshly allocated side slice.
func bisectHeap(g *graph.Graph, r *rand.Rand) (int, []bool) {
	if r == nil {
		r = rand.New(rand.NewSource(1))
	}
	n := g.NumNodes()
	if n < 2 {
		return 0, make([]bool, n)
	}
	ws := NewWorkspace()
	l0 := ws.level0()
	l0.fromGraph(g)
	maxW := maxNodeWeight(n)
	depth := 0
	cur := l0
	for cur.numNodes() > coarsestSize {
		next := ws.levelAt(depth + 1)
		ws.coarsen(cur, next, maxW, r)
		if next.numNodes() >= cur.numNodes() {
			break
		}
		depth++
		cur = next
	}
	cur.side = growBool(cur.side, cur.numNodes())
	ws.initialBisection(cur, cur.side, r)
	ws.refineHeap(cur, cur.side, balance, refinements)
	for i := depth - 1; i >= 0; i-- {
		lv := ws.levels[i]
		lv.side = growBool(lv.side, lv.numNodes())
		for v := range lv.side {
			lv.side[v] = ws.levels[i+1].side[lv.cmap[v]]
		}
		ws.refineHeap(lv, lv.side, balance, refinements)
	}
	return cutOf(l0, l0.side), slices.Clone(l0.side)
}

// randomLevel draws a weighted level on n nodes: node weights 1–3, each
// pair joined with probability p by an edge of weight 1–5, adjacency runs
// sorted by target id as coarsen leaves them. It also draws random sides.
func randomLevel(r *rand.Rand, n int, p float64) (*level, []bool) {
	adj := make([][]wedge, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				w := int32(1 + r.Intn(5))
				adj[u] = append(adj[u], wedge{int32(v), w})
				adj[v] = append(adj[v], wedge{int32(u), w})
			}
		}
	}
	l := &level{nodeW: make([]int32, n), off: make([]int32, n+1)}
	side := make([]bool, n)
	for v := 0; v < n; v++ {
		l.nodeW[v] = int32(1 + r.Intn(3))
		side[v] = r.Intn(2) == 1
		l.off[v] = int32(len(l.adj))
		l.adj = append(l.adj, adj[v]...)
	}
	l.off[n] = int32(len(l.adj))
	return l, side
}

// checkRefineMatchesHeap refines one random level with both queues and
// fails unless the side arrays agree exactly.
func checkRefineMatchesHeap(t *testing.T, seed int64, n int, p, balance float64, passes int) {
	t.Helper()
	l, side := randomLevel(rand.New(rand.NewSource(seed)), n, p)
	got, want := slices.Clone(side), slices.Clone(side)
	NewWorkspace().refine(l, got, balance, passes)
	NewWorkspace().refineHeap(l, want, balance, passes)
	if !slices.Equal(got, want) {
		t.Fatalf("seed %d n %d p %.3f balance %.3f passes %d: bucket sides %v, heap sides %v",
			seed, n, p, balance, passes, got, want)
	}
}

// FuzzRefineMatchesHeap compares refine with the lazy-heap reference on
// random weighted levels of up to 64 nodes. Balance stays in [0.5, 0.7],
// where weighted nodes often fail the balance check, so the re-queueing of
// rejected nodes is exercised.
func FuzzRefineMatchesHeap(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(30), uint8(0), uint8(3))
	f.Add(int64(2), uint8(63), uint8(8), uint8(128), uint8(5))
	f.Add(int64(3), uint8(40), uint8(90), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, density, bal, ref uint8) {
		n := 1 + int(nRaw)%64
		p := float64(density) / 255
		balance := 0.5 + 0.2*float64(bal)/255
		checkRefineMatchesHeap(t, seed, n, p, balance, 1+int(ref)%6)
	})
}

// TestRefineMatchesHeapMultiword extends the fuzz comparison past one bitmap
// word per bucket: levels of 65–400 nodes exercise the per-bucket word
// cursors.
func TestRefineMatchesHeapMultiword(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		n := 65 + r.Intn(336)
		p := (1 + 15*r.Float64()) / float64(n)
		checkRefineMatchesHeap(t, int64(i), n, p, 0.5+0.2*r.Float64(), 1+r.Intn(6))
	}
}
