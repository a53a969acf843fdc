package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
	"topocmp/internal/stats"
)

// The scalar references below are the historical per-source g.BFS
// implementations of the three distance sweeps, kept verbatim so the
// bit-parallel kernel path can be byte-compared against them across the
// paper's network families.

func scalarExpansion(g *graph.Graph, cfg ball.Config) stats.Series {
	out := stats.Series{Name: "expansion"}
	n := g.NumNodes()
	if n == 0 {
		return out
	}
	centers := ball.Centers(g, &cfg)
	var cums [][]int32
	maxEcc := 0
	for _, src := range centers {
		dist, order := g.BFS(src)
		ecc := int(dist[order[len(order)-1]])
		cum := make([]int32, ecc+1)
		for _, v := range order {
			cum[dist[v]]++
		}
		for h := 1; h <= ecc; h++ {
			cum[h] += cum[h-1]
		}
		cums = append(cums, cum)
		if ecc > maxEcc {
			maxEcc = ecc
		}
	}
	total := float64(n)
	for h := 0; h <= maxEcc; h++ {
		sum := 0.0
		for _, cum := range cums {
			hh := h
			if hh >= len(cum) {
				hh = len(cum) - 1
			}
			sum += float64(cum[hh])
		}
		out.Add(float64(h), sum/float64(len(cums))/total)
	}
	return out
}

func scalarEccentricity(g *graph.Graph, maxSamples int, binWidth float64, rng *rand.Rand) stats.Series {
	out := stats.Series{Name: "eccentricity"}
	n := g.NumNodes()
	if n == 0 {
		return out
	}
	cfg := ball.Config{MaxSources: maxSamples, Rand: rng}
	centers := ball.Centers(g, &cfg)
	eccs := make([]int, len(centers))
	sum := 0.0
	for i, src := range centers {
		dist, order := g.BFS(src)
		eccs[i] = int(dist[order[len(order)-1]])
		sum += float64(eccs[i])
	}
	mean := sum / float64(len(centers))
	if mean == 0 {
		return out
	}
	bins := map[int]int{}
	for _, ecc := range eccs {
		bins[int(float64(ecc)/mean/binWidth)]++
	}
	for b, cnt := range bins {
		out.Add(float64(b)*binWidth+binWidth/2, float64(cnt)/float64(len(centers)))
	}
	out.SortByX()
	return out
}

func scalarAveragePathLength(g *graph.Graph, maxSources int) float64 {
	n := g.NumNodes()
	if n < 2 {
		return 0
	}
	sources := n
	if maxSources > 0 && maxSources < n {
		sources = maxSources
	}
	r := rand.New(rand.NewSource(int64(n)))
	perm := r.Perm(n)
	totalDist, totalPairs := 0.0, 0.0
	for i := 0; i < sources; i++ {
		src := int32(perm[i])
		dist, order := g.BFS(src)
		for _, v := range order {
			if v != src {
				totalDist += float64(dist[v])
				totalPairs++
			}
		}
	}
	if totalPairs == 0 {
		return 0
	}
	return totalDist / totalPairs
}

func seriesBytes(s stats.Series) []byte {
	return []byte(fmt.Sprintf("%s|%v", s.Name, s.Points))
}

// TestMSBFSGoldenSeriesScalarVsBatched byte-compares the batched kernel
// form of every distance-only sweep — expansion, eccentricity distribution,
// average path length — against the historical scalar implementation across
// the paper's network families (the two measured graphs and the generated /
// canonical generators), at engine parallelism 1 and 4.
func TestMSBFSGoldenSeriesScalarVsBatched(t *testing.T) {
	opts := PaperSetOptions{Seed: 1, Scale: 0.12}
	ms := BuildMeasured(opts)
	nets := []*Network{ms.AS, ms.RL}
	for _, name := range []string{"PLRG", "TS", "Mesh", "Tree", "Random"} {
		nets = append(nets, BuildNetwork(name, opts))
	}
	for _, n := range nets {
		g := n.Graph
		expCfg := func() ball.Config {
			return ball.Config{MaxSources: 48, Rand: rand.New(rand.NewSource(1))}
		}
		wantExp := scalarExpansion(g, expCfg())
		wantEcc := scalarEccentricity(g, 48, 0.1, rand.New(rand.NewSource(1)))
		wantAPL := scalarAveragePathLength(g, 24)
		for _, parallel := range []int{1, 4} {
			eng := ball.NewEngine(g, parallel)
			// The kernel path now also attaches sampling standard errors
			// (absent from the historical scalar references), so the golden
			// comparison is over Name and Points — the plotted values.
			gotExp := metrics.ExpansionWith(eng, expCfg())
			if !reflect.DeepEqual(gotExp.Points, wantExp.Points) || !bytes.Equal(seriesBytes(gotExp), seriesBytes(wantExp)) {
				t.Errorf("%s P=%d: batched expansion differs from scalar", n.Name, parallel)
			}
			if len(gotExp.StdErr) != len(gotExp.Points) {
				t.Errorf("%s P=%d: expansion StdErr length %d, want %d", n.Name, parallel, len(gotExp.StdErr), len(gotExp.Points))
			}
			gotEcc := metrics.EccentricityDistributionWith(eng, 48, 0.1, rand.New(rand.NewSource(1)))
			if !reflect.DeepEqual(gotEcc.Points, wantEcc.Points) || !bytes.Equal(seriesBytes(gotEcc), seriesBytes(wantEcc)) {
				t.Errorf("%s P=%d: batched eccentricity differs from scalar", n.Name, parallel)
			}
			if len(gotEcc.StdErr) != len(gotEcc.Points) {
				t.Errorf("%s P=%d: eccentricity StdErr length %d, want %d", n.Name, parallel, len(gotEcc.StdErr), len(gotEcc.Points))
			}
		}
		if got, _ := metrics.AveragePathLength(g, 24); got != wantAPL {
			t.Errorf("%s: batched path length %v, scalar %v", n.Name, got, wantAPL)
		}
	}
}
