package main

import (
	"math"
	"testing"
	"time"

	"topocmp/internal/obs"
)

func TestUnionLen(t *testing.T) {
	ms := time.Millisecond
	got := unionLen([]ival{{5 * ms, 8 * ms}, {0, 2 * ms}, {1 * ms, 3 * ms}, {7 * ms, 9 * ms}})
	if got != 7*ms {
		t.Errorf("union %v, want 7ms", got)
	}
}

// TestFairShareSplitsOverlap: two stages overlapping for half their time
// split the overlap evenly and sum to the union of their intervals.
func TestFairShareSplitsOverlap(t *testing.T) {
	ms := time.Millisecond
	got := fairShare([]labeled{
		{"resilience", ival{0, 4 * ms}},
		{"distortion", ival{2 * ms, 6 * ms}},
		{"resilience", ival{8 * ms, 9 * ms}},
	})
	if got["resilience"] != 4*ms || got["distortion"] != 3*ms {
		t.Errorf("got %v, want resilience 4ms, distortion 3ms", got)
	}
}

// TestSpanLayers builds a traced repetition by hand: a setup#0 with builds,
// and a suite whose two stages overlap. Self time excludes the children;
// shares divide the overlap.
func TestSpanLayers(t *testing.T) {
	tr, c := newTracer()
	root := tr.Root()
	ms := time.Millisecond
	set := func(s *obs.Span, lo, hi time.Duration) {
		c.mu.Lock()
		c.lo[s], c.hi[s] = lo, hi
		c.mu.Unlock()
	}
	setup := root.Start("setup#0")
	b := setup.Start("build:measured:AS")
	b.End()
	setup.End()
	suite := root.Start("suite:AS")
	res := suite.Start("resilience")
	part := res.Start("kernel")
	dist := suite.Start("distortion")
	for _, s := range []*obs.Span{part, res, dist, suite} {
		s.End()
	}
	set(res, 0, 10*ms)
	set(part, 2*ms, 5*ms)
	set(dist, 5*ms, 15*ms)
	set(suite, 0, 20*ms)

	out := map[string]float64{}
	spanLayers(tr, c, 20*ms, out)
	near := func(name string, want float64) {
		if math.Abs(out[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, out[name], want)
		}
	}
	near("stage.resilience_s", 0.007) // 10ms minus the 3ms kernel child
	near("stage.distortion_s", 0.010)
	near("share.resilience", 7.5/20) // 5ms alone, 5ms shared
	near("share.distortion", 7.5/20)
	if _, ok := out["build.measured_s"]; !ok {
		t.Error("build.measured_s missing")
	}
	if _, ok := out["suite.AS_s"]; !ok {
		t.Error("suite.AS_s missing")
	}
}
