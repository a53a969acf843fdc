package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestGenerateAllTypes(t *testing.T) {
	gp := genParams{
		n: 300, beta: 2.2, alpha: 0.1, wbeta: 0.4, p: 0.02,
		k: 3, depth: 4, rows: 10, cols: 12, m: 2,
	}
	types := []string{
		"plrg", "waxman", "transitstub", "tiers", "tree", "mesh",
		"random", "complete", "linear", "ba", "brite", "bt", "inet",
		"internet-as",
	}
	for _, typ := range types {
		g, err := generate(rand.New(rand.NewSource(1)), typ, gp)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s: empty graph", typ)
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	gp := genParams{n: 300, k: 2, depth: 3, rows: 5, cols: 7, p: 0.05, beta: 2.2, alpha: 0.1, wbeta: 0.4, m: 2}
	cases := map[string]int{
		"tree":     15, // 2^4 - 1
		"mesh":     35,
		"complete": 300,
		"linear":   300,
	}
	for typ, want := range cases {
		g, err := generate(rand.New(rand.NewSource(2)), typ, gp)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != want {
			t.Fatalf("%s: nodes = %d, want %d", typ, g.NumNodes(), want)
		}
	}
}

func TestGenerateUnknownType(t *testing.T) {
	if _, err := generate(rand.New(rand.NewSource(1)), "nope", genParams{}); err == nil {
		t.Fatal("expected error for unknown type")
	}
}

// TestGenerateInvalidParams checks that out-of-range parameters and sizes
// the int32 CSR cannot hold end in an error before anything is generated,
// never in a panic or an out-of-memory crash.
func TestGenerateInvalidParams(t *testing.T) {
	ok := genParams{n: 300, k: 3, depth: 4, rows: 10, cols: 12, p: 0.02, beta: 2.2, alpha: 0.1, wbeta: 0.4, m: 2}
	cases := []struct {
		typ string
		set func(*genParams)
	}{
		{"plrg", func(gp *genParams) { gp.n = 1 }},
		{"complete", func(gp *genParams) { gp.n = -1 }},
		{"complete", func(gp *genParams) { gp.n = 0 }},
		{"random", func(gp *genParams) { gp.n = -5 }},
		{"linear", func(gp *genParams) { gp.n = -2 }},
		{"tree", func(gp *genParams) { gp.k = 0 }},
		{"tree", func(gp *genParams) { gp.depth = -1 }},
		{"mesh", func(gp *genParams) { gp.rows = 0 }},
		{"mesh", func(gp *genParams) { gp.cols = -3 }},
		{"random", func(gp *genParams) { gp.p = 2 }},
		{"random", func(gp *genParams) { gp.p = math.NaN() }},
		// Sizes past the int32 CSR: 1.1e12 tree nodes, 2^31 - 2 tree
		// edges, and adjacency arrays longer than math.MaxInt32.
		{"tree", func(gp *genParams) { gp.k, gp.depth = 10, 12 }},
		{"tree", func(gp *genParams) { gp.k, gp.depth = 2, 30 }},
		{"tree", func(gp *genParams) { gp.k, gp.depth = 1, math.MaxInt32 }},
		{"mesh", func(gp *genParams) { gp.rows, gp.cols = 40000, 40000 }},
		{"complete", func(gp *genParams) { gp.n = 46342 }},
		{"linear", func(gp *genParams) { gp.n = math.MaxInt32 }},
		{"random", func(gp *genParams) { gp.n, gp.p = 1<<20, 0.01 }},
	}
	for _, c := range cases {
		gp := ok
		c.set(&gp)
		if _, err := generate(rand.New(rand.NewSource(1)), c.typ, gp); err == nil {
			t.Errorf("%s %+v: expected a validation error", c.typ, gp)
		}
	}
}
