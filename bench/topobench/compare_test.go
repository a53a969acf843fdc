package main

import (
	"testing"
	"time"
)

// synthSet builds a set of n repetitions of one workload whose wall_s
// follows wall(i), started at start(i), with the host calibration at calib.
func synthSet(n int, calib float64, wall func(i int) float64, start func(i int) time.Time) *setFile {
	s := &setFile{}
	for i := range n {
		w := wall(i)
		s.Reps = append(s.Reps, &repResult{
			Workload: "quick", Seed: 1, Start: start(i), Correct: true, Attempted: 100,
			SetupS: []float64{1, 1.01, 0.99},
			Metrics: map[string]float64{
				"wall_s": w, "setup_s": 1, "cpu_s": w, "peak_heap_mb": 500, "rps": 1 / w,
				"p50_ms": 1000 * w, "p90_ms": 1000 * w, "host_calib_s": calib,
			},
		})
	}
	return s
}

var t0 = time.Unix(1_700_000_000, 0)

// alternating starts parent and change repetitions so that pair i runs
// parent first for even i and change first for odd i.
func alternating(change bool) func(i int) time.Time {
	return func(i int) time.Time {
		first := (i%2 == 0) != change
		off := 1
		if first {
			off = 0
		}
		return t0.Add(time.Duration(2*i+off) * time.Minute)
	}
}

func verdicts(t *testing.T, a, b *setFile) map[string]string {
	t.Helper()
	rows, err := compareSets(a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, r := range rows {
		out[r.metric] = r.verdict
	}
	return out
}

func TestCompareSameCodeWithinBound(t *testing.T) {
	wall := func(i int) float64 { return 10 + 0.01*float64(i%3) }
	v := verdicts(t, synthSet(10, 0.5, wall, alternating(false)), synthSet(10, 0.5, wall, alternating(true)))
	for m, got := range v {
		if got != verdictUnchanged {
			t.Errorf("%s: %s, want %s", m, got, verdictUnchanged)
		}
	}
}

func TestCompareRegression(t *testing.T) {
	a := synthSet(5, 0.5, func(i int) float64 { return 10 + 0.01*float64(i) }, alternating(false))
	b := synthSet(5, 0.5, func(i int) float64 { return 14 + 0.01*float64(i) }, alternating(true))
	v := verdicts(t, a, b)
	for _, m := range []string{"wall_s", "cpu_s", "rps", "p50_ms"} {
		if v[m] != verdictRegression {
			t.Errorf("%s: %s, want %s", m, v[m], verdictRegression)
		}
	}
	if v["peak_heap_mb"] != verdictUnchanged {
		t.Errorf("peak_heap_mb: %s, want %s", v["peak_heap_mb"], verdictUnchanged)
	}
}

func TestCompareGainNeedsTenAlternatingPairs(t *testing.T) {
	parent := func(i int) float64 { return 10 + 0.02*float64(i%4) }
	change := func(i int) float64 { return 9 + 0.02*float64(i%4) }
	v := verdicts(t, synthSet(10, 0.5, parent, alternating(false)), synthSet(10, 0.5, change, alternating(true)))
	if v["wall_s"] != verdictGain || v["rps"] != verdictGain {
		t.Errorf("ten alternating pairs, change always faster: wall_s %s, rps %s, want %s",
			v["wall_s"], v["rps"], verdictGain)
	}
	v = verdicts(t, synthSet(9, 0.5, parent, alternating(false)), synthSet(9, 0.5, change, alternating(true)))
	if v["wall_s"] != verdictUnchanged {
		t.Errorf("nine pairs: %s, want %s", v["wall_s"], verdictUnchanged)
	}
	// The parent always runs first: the sides do not alternate.
	first := func(change bool) func(i int) time.Time {
		return func(i int) time.Time {
			if change {
				return t0.Add(time.Duration(2*i+1) * time.Minute)
			}
			return t0.Add(time.Duration(2*i) * time.Minute)
		}
	}
	v = verdicts(t, synthSet(10, 0.5, parent, first(false)), synthSet(10, 0.5, change, first(true)))
	if v["wall_s"] != verdictUnchanged {
		t.Errorf("non-alternating pairs: %s, want %s", v["wall_s"], verdictUnchanged)
	}
	// Eight of ten pairs won: below the nine-tenths rule.
	mixed := func(i int) float64 {
		if i < 2 {
			return 11
		}
		return change(i)
	}
	v = verdicts(t, synthSet(10, 0.5, parent, alternating(false)), synthSet(10, 0.5, mixed, alternating(true)))
	if v["wall_s"] != verdictUnchanged {
		t.Errorf("8/10 wins: %s, want %s", v["wall_s"], verdictUnchanged)
	}
}

func TestCompareHostDrift(t *testing.T) {
	wall := func(i int) float64 { return 10 }
	v := verdicts(t, synthSet(10, 0.5, wall, alternating(false)), synthSet(10, 0.53, wall, alternating(true)))
	if v["wall_s"] != verdictDrift {
		t.Errorf("calibration 6%% apart: %s, want %s", v["wall_s"], verdictDrift)
	}
	v = verdicts(t, synthSet(10, 0.5, wall, alternating(false)), synthSet(10, 0.52, wall, alternating(true)))
	if v["wall_s"] != verdictUnchanged {
		t.Errorf("calibration 4%% apart: %s, want %s", v["wall_s"], verdictUnchanged)
	}
	a, b := synthSet(10, 0.5, wall, alternating(false)), synthSet(10, 0.5, wall, alternating(true))
	for i := range b.Reps {
		a.Reps[i].Metrics["host_steal_frac"] = 0.02
		b.Reps[i].Metrics["host_steal_frac"] = 0.14
	}
	if v := verdicts(t, a, b); v["wall_s"] != verdictDrift {
		t.Errorf("steal 2%% against 14%%: %s, want %s", v["wall_s"], verdictDrift)
	}
}

func TestCompareSpreadAndFailures(t *testing.T) {
	noisy := func(i int) float64 { return []float64{8, 12, 9, 13, 10}[i%5] }
	a := synthSet(5, 0.5, noisy, alternating(false))
	b := synthSet(5, 0.5, noisy, alternating(true))
	b.Reps[0].Failed = 1
	v := verdicts(t, a, b)
	if v["wall_s"] != verdictSpread {
		t.Errorf("spread wider than the bound: %s, want %s", v["wall_s"], verdictSpread)
	}
	if v["fail_frac"] != verdictRegression {
		t.Errorf("one failure in 500: %s, want %s", v["fail_frac"], verdictRegression)
	}
	fast := synthSet(5, 0.5, func(i int) float64 { return noisy(i) / 2 }, alternating(true))
	if v := verdicts(t, a, fast); v["wall_s"] != verdictBetterAll {
		t.Errorf("every run faster: %s, want %s", v["wall_s"], verdictBetterAll)
	}
}
