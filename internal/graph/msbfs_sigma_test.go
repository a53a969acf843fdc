package graph

import (
	"math/rand"
	"testing"
)

// checkSigmaMatchesScalar verifies one RunSigma against a scalar
// BFSScratch.Counts per source: every distance row and every path count.
func checkSigmaMatchesScalar(t *testing.T, g *Graph, s *MSBFSScratch, sources []int32) {
	t.Helper()
	s.RunSigma(g, sources)
	sc := NewBFSScratch()
	n := int32(g.NumNodes())
	for i, src := range sources {
		sc.Counts(g, src)
		drow, srow := s.DistRow(i), s.SigmaRow(i)
		for v := int32(0); v < n; v++ {
			if got, want := drow[v], sc.Dist(v); got != want {
				t.Fatalf("source %d (%d): dist[%d] = %d, want %d", i, src, v, got, want)
			}
			if got, want := srow[v], sc.Sigma(v); got != want {
				t.Fatalf("source %d (%d): sigma[%d] = %v, want %v", i, src, v, got, want)
			}
		}
	}
}

func TestRunSigmaMatchesScalarCounts(t *testing.T) {
	g := msbfsTestGraph(11, 300, 700) // isolated nodes + several components
	s := NewMSBFSScratch()
	r := rand.New(rand.NewSource(13))
	for _, width := range []int{1, 2, 63, 64, 65, 128, 130, 256} {
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32(r.Intn(g.NumNodes()))
		}
		checkSigmaMatchesScalar(t, g, s, sources)
	}
}

func TestRunSigmaDuplicateSources(t *testing.T) {
	g := msbfsTestGraph(17, 120, 300)
	s := NewMSBFSScratch()
	// Lanes are independent: the same source twice in one strip must yield
	// two identical rows, including across the one-word/multi-word split.
	for _, width := range []int{6, 70} {
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32((i % 3) * 5) // heavy duplication
		}
		checkSigmaMatchesScalar(t, g, s, sources)
	}
}

func TestRunSigmaAfterRunAndBack(t *testing.T) {
	g := msbfsTestGraph(19, 150, 400)
	s := NewMSBFSScratch()
	// Interleave level runs and sigma runs on one scratch: the epoch reset
	// and the pre-filled rows must not leak state between modes.
	checkSigmaMatchesScalar(t, g, s, []int32{0, 3, 9})
	s.RunLevels(g, []int32{1, 2})
	checkSigmaMatchesScalar(t, g, s, []int32{4, 4, 7, 0})
	s.RunLevels(g, []int32{5})
	checkSigmaMatchesScalar(t, g, s, []int32{8})
}

func TestSigmaRowPanicsWithoutRunSigma(t *testing.T) {
	g := msbfsTestGraph(23, 40, 80)
	s := NewMSBFSScratch()
	s.RunLevels(g, []int32{0})
	defer func() {
		if recover() == nil {
			t.Fatal("SigmaRow after RunLevels did not panic")
		}
	}()
	s.SigmaRow(0)
}

// scalarDirectedCounts is a reference BFS-with-counts over a raw directed
// CSR, mirroring BFSScratch.Counts' queue-order accumulation.
func scalarDirectedCounts(n int, off, adj []int32, src int32) ([]int32, []float64) {
	dist := make([]int32, n)
	sigma := make([]float64, n)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[src], sigma[src] = 0, 1
	queue := []int32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for _, v := range adj[off[u]:off[u+1]] {
			if dist[v] == Unreached {
				dist[v] = du + 1
				queue = append(queue, v)
			}
			if dist[v] == du+1 {
				sigma[v] += sigma[u]
			}
		}
	}
	return dist, sigma
}

func TestRunSigmaCSRDirected(t *testing.T) {
	// A directed CSR the Graph type cannot express: a layered DAG with
	// cross arcs plus a back edge, so shortest-path counts multiply.
	r := rand.New(rand.NewSource(29))
	const n, layers = 260, 13
	per := n / layers
	var heads [][]int32
	for u := 0; u < n; u++ {
		layer := u / per
		var hs []int32
		if layer+1 < layers {
			for k := 0; k < 3; k++ {
				hs = append(hs, int32((layer+1)*per+r.Intn(per)))
			}
		}
		if layer > 1 && r.Intn(4) == 0 {
			hs = append(hs, int32(r.Intn(per))) // back arc to layer 0
		}
		heads = append(heads, hs)
	}
	off := make([]int32, n+1)
	var adj []int32
	for u := 0; u < n; u++ {
		off[u] = int32(len(adj))
		adj = append(adj, heads[u]...)
	}
	off[n] = int32(len(adj))

	s := NewMSBFSScratch()
	for _, width := range []int{1, 5, 64, 96} {
		sources := make([]int32, width)
		for i := range sources {
			sources[i] = int32(r.Intn(n))
		}
		s.RunSigmaCSR(n, off, adj, sources)
		for i, src := range sources {
			wantDist, wantSigma := scalarDirectedCounts(n, off, adj, src)
			drow, srow := s.DistRow(i), s.SigmaRow(i)
			for v := 0; v < n; v++ {
				if drow[v] != wantDist[v] {
					t.Fatalf("width %d source %d (%d): dist[%d] = %d, want %d", width, i, src, v, drow[v], wantDist[v])
				}
				if srow[v] != wantSigma[v] {
					t.Fatalf("width %d source %d (%d): sigma[%d] = %v, want %v", width, i, src, v, srow[v], wantSigma[v])
				}
			}
		}
	}
}
