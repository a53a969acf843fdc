package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// Verdicts compare reports per workload and metric.
const (
	verdictRegression = "REGRESSION"
	verdictGain       = "gain"
	verdictUnchanged  = "within bound"
	verdictBetterAll  = "better in every run"
	verdictSpread     = "unresolved: spread wider than bound"
	verdictDrift      = "unresolved: host drift"
)

// Rules of the paired comparison: a gain needs at least minPairs
// alternating pairs, the change winning winShare of them, and a median gap
// wider than the parent's interquartile range. Sets whose host_calib_s
// medians differ by more than maxDrift (relative), or whose host_steal_frac
// medians differ by more than maxStealDrift (absolute), ran on different
// hosts in effect and are not compared at all.
const (
	minPairs      = 10
	winShare      = 0.9
	maxDrift      = 0.05
	maxStealDrift = 0.05
)

// row is one line of a comparison.
type row struct {
	workload, metric string
	a, b             agg
	verdict          string
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: topobench compare PARENT.json CHANGE.json")
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	a, err := loadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench compare:", err)
		return 2
	}
	b, err := loadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench compare:", err)
		return 2
	}
	rows, err := compareSets(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench compare:", err)
		return 2
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3] n\tchange median [q1, q3] n\tdelta\tverdict")
	regressed := false
	for _, r := range rows {
		delta := "-"
		if r.a.Median != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.b.Median/r.a.Median-1))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", r.workload, r.metric,
			fmtAgg(r.a), fmtAgg(r.b), delta, r.verdict)
		regressed = regressed || r.verdict == verdictRegression
	}
	tw.Flush() //nolint:errcheck // report rendering is best-effort
	if regressed {
		return 1
	}
	return 0
}

func fmtAgg(a agg) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", a.Median, a.Q1, a.Q3, a.N)
}

// compareSets judges set b (the change) against set a (the parent) for
// every workload both contain: each end-to-end metric against its bound,
// and the failure ratio against failFracSlack.
func compareSets(a, b *setFile) ([]row, error) {
	host := func(s *setFile, name string) float64 {
		var xs []float64
		for _, r := range s.Reps {
			if !r.Traced {
				xs = append(xs, r.Metrics[name])
			}
		}
		return median(xs)
	}
	drift := math.Abs(host(b, "host_calib_s")/host(a, "host_calib_s")-1) > maxDrift ||
		math.Abs(host(b, "host_steal_frac")-host(a, "host_steal_frac")) > maxStealDrift
	var rows []row
	for _, w := range workloadNames {
		ra, rb := untracedReps(a, w), untracedReps(b, w)
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if ra[0].Seed != rb[0].Seed {
			return nil, fmt.Errorf("%s: the sets ran different seeds (%d, %d)", w, ra[0].Seed, rb[0].Seed)
		}
		pairs := pairUp(ra, rb)
		for _, m := range endToEnd {
			xa, xb := values(ra, m.Name), values(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := row{workload: w, metric: m.Name, a: aggregate(xa), b: aggregate(xb)}
			r.verdict = judge(m, r.a, r.b, xa, xb, pairs, drift)
			rows = append(rows, r)
		}
		fa, fb := failFrac(a, w), failFrac(b, w)
		r := row{workload: w, metric: "fail_frac", a: agg{Median: fa, Q1: fa, Q3: fa, N: 1},
			b: agg{Median: fb, Q1: fb, Q3: fb, N: 1}, verdict: verdictUnchanged}
		if fb > fa+failFracSlack {
			r.verdict = verdictRegression
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("the sets share no workload with correct repetitions")
	}
	return rows, nil
}

// judge applies the bound and the paired rule to one metric.
func judge(m metricDef, a, b agg, xa, xb []float64, pairs [][2]*repResult, drift bool) string {
	better := func(x, y float64) bool { // x better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	if drift {
		return verdictDrift
	}
	if (a.Q3-a.Q1)/a.Median > m.Bound || (b.Q3-b.Q1)/b.Median > m.Bound {
		worstB, bestA := slices.Max(xb), slices.Min(xa)
		if m.Better == "higher" {
			worstB, bestA = slices.Min(xb), slices.Max(xa)
		}
		if better(worstB, bestA) {
			return verdictBetterAll
		}
		return verdictSpread
	}
	worse := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound {
		return verdictRegression
	}
	if len(pairs) >= minPairs && better(b.Median, a.Median) && math.Abs(b.Median-a.Median) > a.Q3-a.Q1 {
		wins := 0
		for _, p := range pairs {
			va, okA := p[0].Metrics[m.Name]
			vb, okB := p[1].Metrics[m.Name]
			if okA && okB && better(vb, va) {
				wins++
			}
		}
		if float64(wins) >= winShare*float64(len(pairs)) {
			return verdictGain
		}
	}
	return verdictUnchanged
}

func untracedReps(s *setFile, w string) []*repResult {
	var out []*repResult
	for _, r := range s.Reps {
		if r.Workload == w && !r.Traced && r.Correct {
			out = append(out, r)
		}
	}
	return out
}

func values(reps []*repResult, name string) []float64 {
	var xs []float64
	for _, r := range reps {
		if name == "setup_s" {
			xs = append(xs, r.SetupS...)
		} else if v, ok := r.Metrics[name]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func failFrac(s *setFile, w string) float64 {
	att, fail := 0, 0
	for _, r := range s.Reps {
		if r.Workload == w {
			att += r.Attempted
			fail += r.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(fail) / float64(att)
}

// pairUp matches the two sides' repetitions of one workload in time order:
// a pair is two consecutive repetitions from different sides, and pairs
// count only while the side that runs first alternates from pair to pair.
// Each pair is returned as (parent, change).
func pairUp(a, b []*repResult) [][2]*repResult {
	type tagged struct {
		r      *repResult
		change bool
	}
	var all []tagged
	for _, r := range a {
		all = append(all, tagged{r, false})
	}
	for _, r := range b {
		all = append(all, tagged{r, true})
	}
	slices.SortFunc(all, func(x, y tagged) int { return x.r.Start.Compare(y.r.Start) })
	var pairs [][2]*repResult
	lastFirst := -1 // which side ran first in the previous pair: 0 parent, 1 change
	for i := 0; i+1 < len(all); {
		x, y := all[i], all[i+1]
		if x.change == y.change {
			i++
			continue
		}
		first := 0
		if x.change {
			first = 1
		}
		if first == lastFirst {
			return pairs // sides stopped alternating
		}
		lastFirst = first
		if x.change {
			x, y = y, x
		}
		pairs = append(pairs, [2]*repResult{x.r, y.r})
		i += 2
	}
	return pairs
}
