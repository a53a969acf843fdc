package topocmp

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"topocmp/internal/ball"
	"topocmp/internal/graph"
	"topocmp/internal/metrics"
)

// TestScaleSmoke is the verify.sh scale gate (run with TOPOCMP_SCALE_SMOKE=1):
// build a million-node PLRG through the streamed path, check the >= 4x
// build-overhead advantage over the map-backed reference builder
// (mapbuilder_test.go) on the identical edge stream, and run one sampled
// expansion with confidence bounds — all within an explicit time and heap
// budget.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("TOPOCMP_SCALE_SMOKE") == "" {
		t.Skip("set TOPOCMP_SCALE_SMOKE=1 to run the million-node scale smoke")
	}
	const (
		timeBudget = 180 * time.Second
		heapBudget = int64(64 << 20) // streamed build peak, paused-GC accounting
	)
	start := time.Now()
	adds, n := plrgEdgeStream(11, 1_000_000)

	gm, mapPeak := buildPeak(adds, func() (func(u, v int32), func() mapCSR) {
		mb := newMapBuilder(n)
		return mb.AddEdge, mb.csr
	})
	gs, streamPeak := buildPeak(adds, func() (func(u, v int32), func() *graph.Graph) {
		sb := graph.NewStreamBuilder(n)
		sb.Reserve(len(adds))
		return sb.AddEdge, sb.Graph
	})
	if gm.fingerprint() != gs.Fingerprint() {
		t.Fatalf("map and streamed builders disagree: %x vs %x", gm.fingerprint(), gs.Fingerprint())
	}
	mapOv, streamOv := mapPeak-gm.bytes(), streamPeak-csrBytes(gs)
	if streamOv <= 0 || mapOv < 4*streamOv {
		t.Errorf("streamed build overhead %d B vs map %d B: want >= 4x advantage", streamOv, mapOv)
	}
	if streamPeak > heapBudget {
		t.Errorf("streamed 1M build peak heap %d B exceeds budget %d B", streamPeak, heapBudget)
	}

	exp := metrics.ExpansionWith(ball.NewEngine(gs, 0), ball.Config{
		MaxSources: 64, Rand: rand.New(rand.NewSource(1)),
	})
	if len(exp.Points) == 0 || len(exp.StdErr) != len(exp.Points) {
		t.Fatalf("sampled expansion: %d points, %d bounds", len(exp.Points), len(exp.StdErr))
	}
	nonzero := false
	for _, se := range exp.StdErr {
		if se > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("sampled expansion on 1M nodes reported all-zero confidence bounds")
	}

	if elapsed := time.Since(start); elapsed > timeBudget {
		t.Errorf("scale smoke took %v, budget %v", elapsed, timeBudget)
	}
}
