// Package plrg implements the Power-Law Random Graph generator of Aiello,
// Chung and Lu ("A Random Graph Model for Massive Graphs", STOC 2000), the
// paper's representative degree-based generator, plus the alternative
// connectivity methods explored in the paper's Appendix D.1.
//
// PLRG assigns each of N nodes a degree drawn from a power law with
// exponent beta, makes v_i copies of node i, and matches copies uniformly
// at random. Self-loops and duplicate links are discarded and the largest
// connected component is returned, exactly as §3.1.2 describes.
package plrg

import (
	"fmt"
	"math/rand"
	"sort"

	"topocmp/internal/graph"
	"topocmp/internal/rng"
)

// Connectivity selects how assigned degrees are satisfied (Appendix D.1).
type Connectivity int

const (
	// CloneMatching is the classic PLRG rule: clone each node per its
	// degree, match clones uniformly at random.
	CloneMatching Connectivity = iota
	// UniformRandom repeatedly links two uniformly chosen nodes with
	// unsatisfied degree, ignoring how much degree remains.
	UniformRandom
	// ProportionalUnsatisfied links nodes chosen with probability
	// proportional to their remaining (unsatisfied) degree — equivalent in
	// distribution to clone matching but implemented without cloning.
	ProportionalUnsatisfied
	// Deterministic starts from the highest-degree node and connects it to
	// lower-degree nodes in decreasing degree order; Appendix D.1 shows this
	// destroys the PLRG's large-scale structure.
	Deterministic
)

// String implements fmt.Stringer for diagnostics.
func (c Connectivity) String() string {
	switch c {
	case CloneMatching:
		return "clone-matching"
	case UniformRandom:
		return "uniform"
	case ProportionalUnsatisfied:
		return "proportional-unsatisfied"
	case Deterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("Connectivity(%d)", int(c))
	}
}

// Params configures the generator. The paper's headline instance is
// N=9230 after component extraction with beta=2.246 (Figure 1); pass
// N≈10000 and beta=2.246 to land near it.
type Params struct {
	N       int          // nodes before largest-component extraction
	Beta    float64      // power-law exponent (P(k) ∝ k^-Beta)
	MaxDeg  int          // degree cap; defaults to N-1
	Connect Connectivity // connectivity method; default CloneMatching
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("plrg: N = %d < 2", p.N)
	}
	if p.Beta <= 1 {
		return fmt.Errorf("plrg: Beta = %v must exceed 1", p.Beta)
	}
	if p.MaxDeg < 0 {
		return fmt.Errorf("plrg: negative MaxDeg %d", p.MaxDeg)
	}
	return nil
}

// Generate draws degrees from the power law and connects them with the
// configured method, returning the largest connected component.
func Generate(r *rand.Rand, p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	maxDeg := p.MaxDeg
	if maxDeg == 0 || maxDeg > p.N-1 {
		maxDeg = p.N - 1
	}
	degrees := rng.PowerLawDegrees(r, p.N, p.Beta, maxDeg)
	g := FromDegrees(r, degrees, p.Connect)
	return g, nil
}

// MustGenerate is Generate but panics on error.
func MustGenerate(r *rand.Rand, p Params) *graph.Graph {
	g, err := Generate(r, p)
	if err != nil {
		panic(err)
	}
	return g
}

// FromDegrees connects a fixed degree sequence with the given method and
// returns the largest connected component. This is also the primitive behind
// Reconnect (Appendix D.1's "modified B-A/Brite" experiment).
//
// Every method streams its edges into a graph.StreamBuilder, which holds 8
// bytes per added edge and is what makes the million-node instances of the
// scale axis buildable. UniformRandom rejects already-present links, so it
// keeps its own seen-set of the links it has added.
func FromDegrees(r *rand.Rand, degrees []int, method Connectivity) *graph.Graph {
	total := 0
	for _, d := range degrees {
		total += d
	}
	b := graph.NewStreamBuilder(len(degrees))
	b.Reserve(total / 2) // every method adds at most one edge per stub pair
	switch method {
	case CloneMatching:
		cloneMatch(r, b, degrees)
	case UniformRandom:
		uniformConnect(r, b, degrees)
	case ProportionalUnsatisfied:
		proportionalConnect(r, b, degrees)
	case Deterministic:
		deterministicConnect(b, degrees)
	default:
		panic(fmt.Sprintf("plrg: unknown connectivity %d", method))
	}
	lc, _ := b.Graph().LargestComponent()
	return lc
}

// Reconnect rewires an existing graph with the PLRG clone-matching method
// while keeping its exact degree sequence — the Appendix D.1 test that
// produced the "modified B-A" and "modified Brite" networks.
func Reconnect(r *rand.Rand, g *graph.Graph) *graph.Graph {
	return FromDegrees(r, g.Degrees(), CloneMatching)
}

func cloneMatch(r *rand.Rand, b *graph.StreamBuilder, degrees []int) {
	total := 0
	for _, d := range degrees {
		total += d
	}
	copies := make([]int32, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			copies = append(copies, int32(v))
		}
	}
	rng.Shuffle(r, copies)
	// Pair adjacent copies: a uniform random perfect matching of the copy
	// multiset. A trailing odd copy stays unmatched.
	for i := 0; i+1 < len(copies); i += 2 {
		b.AddEdge(copies[i], copies[i+1])
	}
}

func uniformConnect(r *rand.Rand, b *graph.StreamBuilder, degrees []int) {
	remaining := append([]int(nil), degrees...)
	seen := make(map[uint64]struct{}) // links added so far, as min<<32 | max
	// Active list of nodes with unsatisfied degree.
	active := make([]int32, 0, len(degrees))
	for v, d := range remaining {
		if d > 0 {
			active = append(active, int32(v))
		}
	}
	// Each iteration picks two uniform distinct active nodes. Give up after
	// a bounded number of failed attempts so odd leftovers terminate.
	failures := 0
	for len(active) >= 2 && failures < 64 {
		i := r.Intn(len(active))
		j := r.Intn(len(active))
		if i == j {
			continue
		}
		u, v := active[i], active[j]
		key := uint64(min(u, v))<<32 | uint64(max(u, v))
		if _, dup := seen[key]; dup {
			failures++
			continue
		}
		failures = 0
		seen[key] = struct{}{}
		b.AddEdge(u, v)
		remaining[u]--
		remaining[v]--
		// Compact out satisfied nodes (order: remove higher index first).
		if i < j {
			i, j = j, i
			u, v = v, u
		}
		if remaining[u] == 0 {
			active[i] = active[len(active)-1]
			active = active[:len(active)-1]
		}
		if remaining[v] == 0 {
			active[j] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
}

func proportionalConnect(r *rand.Rand, b *graph.StreamBuilder, degrees []int) {
	// Sampling proportional to unsatisfied degree is exactly what clone
	// matching does; implement via the copy multiset but resample the
	// second endpoint if it equals the first, which slightly reduces
	// self-loop waste relative to plain matching.
	total := 0
	for _, d := range degrees {
		total += d
	}
	copies := make([]int32, 0, total)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			copies = append(copies, int32(v))
		}
	}
	rng.Shuffle(r, copies)
	for len(copies) >= 2 {
		u := copies[len(copies)-1]
		copies = copies[:len(copies)-1]
		// Find a partner copy belonging to a different node; bounded scan.
		picked := -1
		for attempt := 0; attempt < 16; attempt++ {
			j := r.Intn(len(copies))
			if copies[j] != u {
				picked = j
				break
			}
		}
		if picked == -1 {
			continue
		}
		v := copies[picked]
		copies[picked] = copies[len(copies)-1]
		copies = copies[:len(copies)-1]
		b.AddEdge(u, v)
	}
}

func deterministicConnect(b *graph.StreamBuilder, degrees []int) {
	type nd struct {
		id  int32
		rem int
	}
	nodes := make([]nd, len(degrees))
	for v, d := range degrees {
		nodes[v] = nd{int32(v), d}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].rem != nodes[j].rem {
			return nodes[i].rem > nodes[j].rem
		}
		return nodes[i].id < nodes[j].id
	})
	for i := range nodes {
		if nodes[i].rem <= 0 {
			continue
		}
		for j := i + 1; j < len(nodes) && nodes[i].rem > 0; j++ {
			if nodes[j].rem <= 0 {
				continue
			}
			b.AddEdge(nodes[i].id, nodes[j].id)
			nodes[i].rem--
			nodes[j].rem--
		}
	}
}
