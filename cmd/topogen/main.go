// Command topogen generates network topologies to edge-list files.
//
// Usage:
//
//	topogen -type plrg -n 10000 -beta 2.246 -seed 1 -o plrg.edges
//	topogen -type waxman -n 5000 -alpha 0.005 -wbeta 0.30 -o wax.edges
//	topogen -type transitstub -o ts.edges          # paper parameters
//	topogen -type tiers -o tiers.edges             # paper parameters
//	topogen -type tree -k 3 -depth 6 -o tree.edges
//	topogen -type mesh -rows 30 -cols 30 -o mesh.edges
//	topogen -type random -n 5018 -p 0.0008 -o rand.edges
//	topogen -type ba|brite|bt|inet -n 9000 -o g.edges
//	topogen -type internet-as -n 10941 -o as.edges # simulated Internet
//
// With -o "-" (the default) the edge list goes to stdout.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"topocmp/internal/gen/ba"
	"topocmp/internal/gen/brite"
	"topocmp/internal/gen/bt"
	"topocmp/internal/gen/canonical"
	"topocmp/internal/gen/inet"
	"topocmp/internal/gen/plrg"
	"topocmp/internal/gen/tiers"
	"topocmp/internal/gen/transitstub"
	"topocmp/internal/gen/waxman"
	"topocmp/internal/graph"
	"topocmp/internal/internetsim"
)

func main() {
	var (
		typ    = flag.String("type", "plrg", "generator: plrg, waxman, transitstub, tiers, tree, mesh, random, complete, linear, ba, brite, bt, inet, internet-as")
		n      = flag.Int("n", 10000, "node count (where applicable)")
		seed   = flag.Int64("seed", 1, "RNG seed")
		out    = flag.String("o", "-", "output path, or - for stdout")
		beta   = flag.Float64("beta", 2.246, "power-law exponent (plrg, inet)")
		alpha  = flag.Float64("alpha", 0.005, "Waxman alpha")
		wbeta  = flag.Float64("wbeta", 0.30, "Waxman beta")
		p      = flag.Float64("p", 0.0008, "edge probability (random)")
		k      = flag.Int("k", 3, "tree arity")
		depth  = flag.Int("depth", 6, "tree depth")
		rows   = flag.Int("rows", 30, "mesh rows")
		cols   = flag.Int("cols", 30, "mesh cols")
		m      = flag.Int("m", 2, "links per node (ba, brite, bt)")
		format = flag.String("format", "edgelist", "output format: edgelist or dot")
	)
	flag.Parse()

	r := rand.New(rand.NewSource(*seed))
	g, err := generate(r, *typ, genParams{
		n: *n, beta: *beta, alpha: *alpha, wbeta: *wbeta, p: *p,
		k: *k, depth: *depth, rows: *rows, cols: *cols, m: *m,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
	if err := write(g, *out, *format, *typ); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "topogen: %s: %d nodes, %d edges, avg degree %.2f\n",
		*typ, g.NumNodes(), g.NumEdges(), g.AvgDegree())
}

type genParams struct {
	n                     int
	beta, alpha, wbeta, p float64
	k, depth, rows, cols  int
	m                     int
}

func generate(r *rand.Rand, typ string, gp genParams) (*graph.Graph, error) {
	if err := checkCanonical(typ, gp); err != nil {
		return nil, err
	}
	switch typ {
	case "plrg":
		return plrg.Generate(r, plrg.Params{N: gp.n, Beta: gp.beta})
	case "waxman":
		return waxman.Generate(r, waxman.Params{N: gp.n, Alpha: gp.alpha, Beta: gp.wbeta})
	case "transitstub":
		return transitstub.Generate(r, transitstub.Paper())
	case "tiers":
		return tiers.Generate(r, tiers.Paper())
	case "tree":
		return canonical.Tree(gp.k, gp.depth), nil
	case "mesh":
		return canonical.Mesh(gp.rows, gp.cols), nil
	case "random":
		return canonical.Random(r, gp.n, gp.p), nil
	case "complete":
		return canonical.Complete(gp.n), nil
	case "linear":
		return canonical.Linear(gp.n), nil
	case "ba":
		return ba.Generate(r, ba.Params{N: gp.n, M: gp.m})
	case "brite":
		return brite.Generate(r, brite.Params{N: gp.n, M: gp.m, Placement: brite.PlacementHeavyTailed})
	case "bt":
		return bt.Generate(r, bt.Params{N: gp.n, M: gp.m, P: 0.47, BetaGLP: 0.64})
	case "inet":
		return inet.Generate(r, inet.Params{N: gp.n, Beta: gp.beta})
	case "internet-as":
		as, err := internetsim.GenerateAS(r, internetsim.ASParams{NumAS: gp.n})
		if err != nil {
			return nil, err
		}
		return as.Graph, nil
	default:
		return nil, fmt.Errorf("unknown generator %q", typ)
	}
}

// checkCanonical rejects canonical parameters the generators would panic
// on, and sizes the int32 CSR cannot hold: the node count and twice the
// edge count (one adjacency entry per direction) must both stay within
// math.MaxInt32. Sizes are computed in float64, so they cannot overflow.
func checkCanonical(typ string, gp genParams) error {
	var nodes, edges float64
	switch typ {
	case "tree":
		if gp.k < 1 || gp.depth < 0 {
			return fmt.Errorf("tree needs -k >= 1 and -depth >= 0, got -k %d -depth %d", gp.k, gp.depth)
		}
		nodes = float64(gp.depth) + 1
		if k := float64(gp.k); k > 1 {
			nodes = (math.Pow(k, float64(gp.depth)+1) - 1) / (k - 1)
		}
		edges = nodes - 1
	case "mesh":
		if gp.rows < 1 || gp.cols < 1 {
			return fmt.Errorf("mesh needs -rows >= 1 and -cols >= 1, got %d x %d", gp.rows, gp.cols)
		}
		r, c := float64(gp.rows), float64(gp.cols)
		nodes, edges = r*c, r*(c-1)+c*(r-1)
	case "random", "complete", "linear":
		if gp.n < 1 {
			return fmt.Errorf("%s needs -n >= 1, got %d", typ, gp.n)
		}
		nodes = float64(gp.n)
		switch typ {
		case "random":
			if !(gp.p >= 0 && gp.p <= 1) {
				return fmt.Errorf("random needs -p in [0, 1], got %v", gp.p)
			}
			edges = gp.p * nodes * (nodes - 1) / 2 // expected
		case "complete":
			edges = nodes * (nodes - 1) / 2
		default:
			edges = nodes - 1
		}
	default:
		return nil
	}
	if nodes > math.MaxInt32 || 2*edges > math.MaxInt32 {
		return fmt.Errorf("%s with %.4g nodes and %.4g edges does not fit int32 node ids and adjacency offsets", typ, nodes, edges)
	}
	return nil
}

func write(g *graph.Graph, path, format, name string) error {
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "edgelist":
		return g.WriteEdgeList(w)
	case "dot":
		return g.WriteDOT(w, name, nil)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}
