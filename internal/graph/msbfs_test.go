package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// msbfsTestGraph builds a sparse random graph; leaving isolated nodes and
// multiple components in is deliberate, the kernel must handle both.
func msbfsTestGraph(seed int64, n, edges int) *Graph {
	r := rand.New(rand.NewSource(seed))
	b := NewStreamBuilder(n)
	for i := 0; i < edges; i++ {
		b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	return b.Graph()
}

// checkBatchMatchesScalar verifies RunLevels on g's level graph against a
// scalar BFS per source on g itself, three times on one scratch: with each
// level's direction picked by the rule, all top-down and all bottom-up. It
// checks every level-count row, whose length is the eccentricity plus one
// and whose sum is the reach count.
func checkBatchMatchesScalar(t *testing.T, g *Graph, s *MSBFSScratch, sources []int32) {
	t.Helper()
	lg := NewLevelGraph(g)
	want := make([][]int32, len(sources))
	for i, src := range sources {
		dist, order := g.BFS(src)
		want[i] = make([]int32, dist[order[len(order)-1]]+1)
		for _, v := range order {
			want[i][dist[v]]++
		}
	}
	for _, route := range []struct {
		name string
		run  func(*LevelGraph, []int32)
	}{{"rule", s.RunLevels}, {"top-down", s.RunLevelsTopDown}, {"bottom-up", s.RunLevelsBottomUp}} {
		route.run(lg, sources)
		for i, src := range sources {
			if lc := s.LevelCounts(i); !slices.Equal(lc, want[i]) {
				t.Fatalf("%s: source %d (%d): level counts %v, want %v", route.name, i, src, lc, want[i])
			}
		}
	}
}

func TestMSBFSMatchesScalarBFS(t *testing.T) {
	g := msbfsTestGraph(7, 300, 700) // sparse: isolated nodes + several components
	s := NewMSBFSScratch()
	r := rand.New(rand.NewSource(9))
	for _, width := range []int{1, 2, 7, 63, 64} {
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32(r.Intn(g.NumNodes()))
		}
		checkBatchMatchesScalar(t, g, s, sources)
	}
}

// TestMSBFSScratchReuse reruns one scratch across graphs of different sizes
// and shapes; the epoch stamping must isolate every run.
func TestMSBFSScratchReuse(t *testing.T) {
	s := NewMSBFSScratch()
	big := msbfsTestGraph(1, 400, 1200)
	small := msbfsTestGraph(2, 50, 60)
	checkBatchMatchesScalar(t, big, s, []int32{0, 17, 399})
	checkBatchMatchesScalar(t, small, s, []int32{0, 1, 2, 49})
	checkBatchMatchesScalar(t, big, s, []int32{399, 17, 0, 5})
}

// TestMSBFSDuplicateSources: the same node may carry several source bits.
func TestMSBFSDuplicateSources(t *testing.T) {
	g := msbfsTestGraph(3, 120, 300)
	s := NewMSBFSScratch()
	checkBatchMatchesScalar(t, g, s, []int32{5, 5, 9, 5})
}

// TestMSBFSBatchWidthPanics: a batch of no sources, too many sources or a
// source outside the graph panics before any strip changes, so the scratch
// still runs the next batch correctly.
func TestMSBFSBatchWidthPanics(t *testing.T) {
	g := msbfsTestGraph(4, 80, 160)
	lg := NewLevelGraph(g)
	s := NewMSBFSScratch()
	for _, sources := range [][]int32{nil, make([]int32, MSBFSMaxWidth+1), {3, 80}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RunLevels with sources %v did not panic", sources)
				}
			}()
			s.RunLevels(lg, sources)
		}()
		checkBatchMatchesScalar(t, g, s, []int32{3, 2, 79})
	}
}

// TestLevelGraphFold pins the fold on small graphs: which nodes fold into
// which anchor, the kept nodes' BFS numbering, and the copy's edges.
func TestLevelGraphFold(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		edges  []Edge
		id     []int32 // per node: its number, or ^ its anchor's number
		leaves []int32
		adj    [][]int32 // the copy's rows
	}{
		{"star", 4, []Edge{{0, 1}, {0, 2}, {0, 3}}, []int32{0, ^0, ^0, ^0}, []int32{3}, [][]int32{{}}},
		{"path3", 3, []Edge{{0, 1}, {1, 2}}, []int32{^0, 0, ^0}, []int32{2}, [][]int32{{}}},
		{"pair+isolated", 4, []Edge{{1, 2}}, []int32{0, 1, 2, 3}, []int32{0, 0, 0, 0}, [][]int32{{}, {2}, {1}, {}}},
		// Numbering starts at node 1, the lowest kept id; 0 and 5 fold; 2
		// and 6 are reached from 3, the first of 1's neighbours.
		{"hanging leaves", 7, []Edge{{1, 3}, {1, 4}, {3, 4}, {0, 4}, {2, 3}, {2, 6}, {6, 3}, {5, 6}},
			[]int32{^2, 0, 3, 1, 2, ^4, 4}, []int32{0, 0, 1, 0, 1},
			[][]int32{{1, 2}, {0, 2, 3, 4}, {0, 1}, {1, 4}, {1, 3}}},
	} {
		lg := NewLevelGraph(FromEdges(tc.n, tc.edges))
		if !slices.Equal(lg.id, tc.id) || !slices.Equal(lg.leaves, tc.leaves) {
			t.Fatalf("%s: ids %v leaves %v, want %v %v", tc.name, lg.id, lg.leaves, tc.id, tc.leaves)
		}
		for v, want := range tc.adj {
			if got := lg.c.Neighbors(int32(v)); !slices.Equal(got, want) {
				t.Fatalf("%s: row %d = %v, want %v", tc.name, v, got, want)
			}
		}
	}
}

// TestBallScratchMatchesBFS pins BFSScratch.Ball to the distances and the
// visit order of a full BFS: the ball of radius h is the full order's
// prefix of the nodes within h hops.
func TestBallScratchMatchesBFS(t *testing.T) {
	g := msbfsTestGraph(11, 200, 500)
	s := NewBFSScratch()
	for _, src := range []int32{0, 3, 77, 199} {
		dist, order := g.BFS(src)
		for h := 0; h <= 6; h++ {
			ball := s.Ball(g, src, h)
			prev := int32(-1)
			for _, v := range ball {
				if dist[v] > int32(h) {
					t.Fatalf("src %d h %d: node %d at distance %d in ball", src, h, v, dist[v])
				}
				if dist[v] < prev {
					t.Fatalf("src %d h %d: ball not in BFS order", src, h)
				}
				prev = dist[v]
			}
			inBall := 0
			for v := int32(0); v < int32(g.NumNodes()); v++ {
				if dist[v] != Unreached && int(dist[v]) <= h {
					inBall++
				}
			}
			if len(ball) != inBall {
				t.Fatalf("src %d h %d: ball has %d nodes, want %d", src, h, len(ball), inBall)
			}
			for i := range ball {
				if ball[i] != order[i] {
					t.Fatalf("src %d h %d: ball diverges from the full BFS order at %d", src, h, i)
				}
			}
		}
	}
}

// FuzzMSBFSMatchesBFS reads a graph of up to 64 nodes from raw bytes, two
// per edge (self-loops and repeats included), builds its level graph and
// runs two batches of 1 to 256 sources, duplicates allowed, through one
// reused scratch. Each batch checks RunLevels against Graph.BFS on the
// graph itself with the per-level direction rule, all top-down and all
// bottom-up. Source i is byte i (mod the data's length) plus i, mod n. The
// seeds include a disconnected graph with isolated nodes, a batch of 256
// copies of one source, and graphs whose leaves fold: a star with its hub
// and a leaf among the sources, a three-node path whose two ends fold into
// the middle, a two-node component beside isolated nodes where nothing
// folds, a binary tree, 256 copies of one leaf, and leaves beside their
// anchors.
func FuzzMSBFSMatchesBFS(f *testing.F) {
	f.Add(uint8(4), uint8(0), uint8(255), []byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add(uint8(0), uint8(63), uint8(64), []byte{})
	f.Add(uint8(11), uint8(5), uint8(200), []byte{0, 1, 1, 2, 2, 0, 4, 5, 5, 6, 6, 7, 9, 10})
	f.Add(uint8(7), uint8(255), uint8(255), []byte{0, 7, 6, 5, 4, 3, 2, 1})   // 256 copies of node 0
	f.Add(uint8(5), uint8(1), uint8(9), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // star: hub 0, leaf 2
	f.Add(uint8(2), uint8(3), uint8(0), []byte{0, 1, 1, 2})                   // path: both ends
	f.Add(uint8(4), uint8(4), uint8(6), []byte{0, 1})                         // pair, isolated 2-4
	f.Add(uint8(14), uint8(63), uint8(200), []byte{0, 1, 0, 2, 1, 3, 1, 4, 2, 5, 2, 6,
		3, 7, 3, 8, 4, 9, 4, 10, 5, 11, 5, 12, 6, 13, 6, 14}) // binary tree
	oneLeaf := make([]byte, 256) // path 0-3-1-2, every source the leaf 0
	for i := range oneLeaf {
		oneLeaf[i] = byte((4 - i%4) % 4)
	}
	f.Add(uint8(3), uint8(255), uint8(0), append(oneLeaf, 3, 1))
	f.Add(uint8(3), uint8(3), uint8(2), []byte{0, 1, 1, 2, 2, 3}) // leaves 0, 3 beside anchors 1, 2
	f.Fuzz(func(t *testing.T, nRaw, w1, w2 uint8, data []byte) {
		n := 1 + int(nRaw)%64
		b := NewStreamBuilder(n)
		for i := 0; i+1 < len(data); i += 2 {
			b.AddEdge(int32(data[i])%int32(n), int32(data[i+1])%int32(n))
		}
		g := b.Graph()
		s := NewMSBFSScratch()
		for _, w := range []uint8{w1, w2} {
			sources := make([]int32, 1+int(w))
			for i := range sources {
				sources[i] = int32(i % n)
				if len(data) > 0 {
					sources[i] = int32(int(data[i%len(data)])+i) % int32(n)
				}
			}
			checkBatchMatchesScalar(t, g, s, sources)
		}
	})
}
