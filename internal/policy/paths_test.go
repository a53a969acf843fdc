package policy

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"topocmp/internal/graph"
)

func TestPathTreeFigure15(t *testing.T) {
	a := figure15()
	pt := a.Paths(nA)
	// Distances agree with Dist.
	want := a.Dist(nA)
	for v := int32(0); v < 8; v++ {
		if pt.Dist(v) != want[v] {
			t.Fatalf("PathTree dist(%c) = %d, want %d", 'A'+v, pt.Dist(v), want[v])
		}
	}
	// The selected path to F must be the all-uphill A-C-D-E-F.
	path := pt.Path(nF)
	wantPath := []int32{nA, nC, nD, nE, nF}
	if len(path) != len(wantPath) {
		t.Fatalf("path to F = %v", path)
	}
	for i := range wantPath {
		if path[i] != wantPath[i] {
			t.Fatalf("path to F = %v, want %v", path, wantPath)
		}
	}
	if pt.Path(nA)[0] != nA || len(pt.Path(nA)) != 1 {
		t.Fatalf("path to self = %v", pt.Path(nA))
	}
}

// validPolicyPath checks a node sequence is a valley-free walk on a.
func validPolicyPath(a *Annotated, path []int32) bool {
	state := stateUp
	for i := 0; i+1 < len(path); i++ {
		u, v := path[i], path[i+1]
		if !a.G.HasEdge(u, v) {
			return false
		}
		ns := transition(state, a.Rel(u, v))
		if ns < 0 {
			return false
		}
		state = ns
	}
	return true
}

// Property: every selected path is valley-free, starts at the source, ends
// at the destination, and its length equals the policy distance.
func TestPathTreePathsValidProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomAnnotated(r, 60, 120)
		pt := a.Paths(0)
		dist := a.Dist(0)
		for v := int32(0); v < int32(a.G.NumNodes()); v++ {
			path := pt.Path(v)
			if dist[v] == graph.Unreached {
				if path != nil {
					return false
				}
				continue
			}
			if path[0] != 0 || path[len(path)-1] != v {
				return false
			}
			if int32(len(path)-1) != dist[v] {
				return false
			}
			if !validPolicyPath(a, path) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRouterOverlayPaths(t *testing.T) {
	// Two ASes: provider 0, customer 1; routers 0,1 in AS0; 2,3 in AS1.
	asb := graph.NewBuilder(2)
	asb.AddEdge(0, 1)
	asg := asb.Graph()
	a := NewAnnotated(asg)
	a.SetProviderCustomer(0, 1)
	rlb := graph.NewBuilder(4)
	rlb.AddEdge(0, 1)
	rlb.AddEdge(1, 2)
	rlb.AddEdge(2, 3)
	rl := rlb.Graph()
	o, err := NewRouterOverlay(rl, []int32{0, 0, 1, 1}, a)
	if err != nil {
		t.Fatal(err)
	}
	pt := o.Paths(0)
	path := pt.Path(3)
	want := []int32{0, 1, 2, 3}
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestPathTreeDeterminism(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(3)), 80, 150)
	p1 := a.Paths(0)
	p2 := a.Paths(0)
	for v := int32(0); v < int32(a.G.NumNodes()); v++ {
		a1, a2 := p1.Path(v), p2.Path(v)
		if len(a1) != len(a2) {
			t.Fatalf("nondeterministic path length at %d", v)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("nondeterministic path at %d", v)
			}
		}
	}
}

// TestPathsIntoMatchesPaths sweeps one recycled tree across every source
// and checks it agrees with a fresh tree at each: the scratch reuse
// (stale dist/parent/best/queue contents) must never leak between sources.
func TestPathsIntoMatchesPaths(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(7)), 60, 110)
	n := int32(a.G.NumNodes())
	var reused *PathTree
	for src := int32(0); src < n; src++ {
		reused = a.PathsInto(reused, src)
		fresh := a.Paths(src)
		for v := int32(0); v < n; v++ {
			if reused.Dist(v) != fresh.Dist(v) {
				t.Fatalf("src %d: reused dist(%d) = %d, fresh %d",
					src, v, reused.Dist(v), fresh.Dist(v))
			}
			rp, fp := reused.Path(v), fresh.Path(v)
			if len(rp) != len(fp) {
				t.Fatalf("src %d: path length mismatch at %d", src, v)
			}
			for i := range rp {
				if rp[i] != fp[i] {
					t.Fatalf("src %d: path mismatch at %d", src, v)
				}
			}
		}
	}
}

// TestVisitPathEdgesMatchesPath checks the parent-chain edge walk against
// the Path slices it replaces: unstamped, each destination yields exactly
// the reversed hop sequence of its path; stamped, the union over all
// destinations equals the union of every path's hops (the suffix
// deduplication may only change order and multiplicity, never the set).
func TestVisitPathEdgesMatchesPath(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(11)), 50, 90)
	n := int32(a.G.NumNodes())
	for src := int32(0); src < n; src += 7 {
		pt := a.Paths(src)
		var stamp graph.Stamp
		stamp.Begin(pt.NumProductStates())
		stamped := map[[2]int32]bool{}
		want := map[[2]int32]bool{}
		for dst := int32(0); dst < n; dst++ {
			var got [][2]int32
			pt.VisitPathEdges(nil, dst, func(u, v int32) {
				got = append(got, [2]int32{u, v})
			})
			pt.VisitPathEdges(&stamp, dst, func(u, v int32) {
				stamped[[2]int32{u, v}] = true
			})
			path := pt.Path(dst)
			if len(path) == 0 {
				if len(got) != 0 {
					t.Fatalf("src %d dst %d: unreachable but %d edges visited",
						src, dst, len(got))
				}
				continue
			}
			if len(got) != len(path)-1 {
				t.Fatalf("src %d dst %d: %d edges for a %d-hop path",
					src, dst, len(got), len(path)-1)
			}
			for i, e := range got {
				k := len(path) - 1 - i
				if e != [2]int32{path[k-1], path[k]} {
					t.Fatalf("src %d dst %d: edge %d is %v, path hop %v",
						src, dst, i, e, [2]int32{path[k-1], path[k]})
				}
				want[e] = true
			}
		}
		if len(stamped) != len(want) {
			t.Fatalf("src %d: stamped union has %d edges, path union %d",
				src, len(stamped), len(want))
		}
		for e := range want {
			if !stamped[e] {
				t.Fatalf("src %d: stamped union missing edge %v", src, e)
			}
		}
	}
}

// TestPathIntoReuse walks every destination through one recycled buffer and
// cross-checks against fresh Path calls — stale buffer contents must never
// leak into a later path.
func TestPathIntoReuse(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(13)), 40, 70)
	n := int32(a.G.NumNodes())
	pt := a.Paths(3)
	var buf []int32
	for dst := int32(0); dst < n; dst++ {
		got := pt.PathInto(buf, dst)
		if got != nil {
			buf = got
		}
		fresh := pt.Path(dst)
		if len(got) != len(fresh) {
			t.Fatalf("dst %d: reused path has %d nodes, fresh %d",
				dst, len(got), len(fresh))
		}
		for i := range got {
			if got[i] != fresh[i] {
				t.Fatalf("dst %d: reused path differs at %d", dst, i)
			}
		}
	}
}

// TestNewSuffixMatchesPath checks the stamped suffix walk against each
// destination's full product-state path: the suffix is the path's tail in
// forward order, it hangs off the state just before it (or starts at the
// source), everything before it was covered by an earlier destination, and
// nothing in it was.
func TestNewSuffixMatchesPath(t *testing.T) {
	a := randomAnnotated(rand.New(rand.NewSource(17)), 60, 100)
	n := int32(a.G.NumNodes())
	for src := int32(0); src < n; src += 5 {
		pt := a.Paths(src)
		var stamp graph.Stamp
		stamp.Begin(pt.NumProductStates())
		covered := map[int32]bool{}
		var suffix []int32
		for _, dst := range rand.New(rand.NewSource(int64(src))).Perm(int(n)) {
			var path []int32 // product states, source first
			for st := pt.best[dst]; st >= 0; st = pt.parent[st] {
				path = append([]int32{st}, path...)
			}
			var from int32
			suffix, from = pt.NewSuffix(suffix, &stamp, int32(dst))
			cut := len(path) - len(suffix)
			if !slices.Equal(suffix, path[cut:]) {
				t.Fatalf("src %d dst %d: suffix %v is not the tail of %v", src, dst, suffix, path)
			}
			if (cut == 0 && from != -1) || (cut > 0 && from != path[cut-1]) {
				t.Fatalf("src %d dst %d: suffix hangs off %d, path %v", src, dst, from, path)
			}
			for i, st := range path {
				if covered[st] != (i < cut) {
					t.Fatalf("src %d dst %d: state %d covered=%v at hop %d of %d (cut %d)",
						src, dst, st, covered[st], i, len(path), cut)
				}
				covered[st] = true
			}
		}
	}
}
