package hierarchy

import (
	"math/rand"
	"testing"
	"unsafe"

	"topocmp/internal/gen/canonical"
	"topocmp/internal/policy"
)

// TestStreamEntrySize pins the entry format: an edge id, a pair-table
// index and a fraction, 16 bytes with no padding.
func TestStreamEntrySize(t *testing.T) {
	if s := unsafe.Sizeof(streamEntry{}); s != 16 {
		t.Fatalf("streamEntry is %d bytes, want 16", s)
	}
}

// TestSweepReleasesEntryBlocks checks the entry streams' lifetime: each
// sweep fills its streams' blocks and pair tables, and release frees all
// but the retained blocks, and a pair table larger than they hold, before
// the scratches go back to the pool. The Mesh's lattice of equal-cost
// paths makes every stream outgrow the retained blocks.
func TestSweepReleasesEntryBlocks(t *testing.T) {
	g := canonical.Mesh(30, 30)
	a := policy.NewAnnotated(g)
	for _, e := range g.Edges() {
		a.SetSibling(e.U, e.V)
	}
	routes := []struct {
		name    string
		sources int
		sweep   func(*Options, []int32, []bool) ([]*edgeStream, func())
	}{
		{"plain", 384, func(o *Options, s []int32, q []bool) ([]*edgeStream, func()) {
			return sweepPlain(g, o, s, q)
		}},
		{"policy", 192, func(o *Options, s []int32, q []bool) ([]*edgeStream, func()) {
			return sweepPolicy(a, o, s, q)
		}},
	}
	for _, r := range routes {
		for _, parallel := range []int{1, 2} {
			opts := Options{MaxSources: r.sources, Rand: rand.New(rand.NewSource(7)), Parallelism: parallel}
			sources, inQ := sampleSources(g.NumNodes(), opts)
			streams, release := r.sweep(&opts, sources, inQ)
			for w, es := range streams {
				if len(es.blocks) <= retainedBlocks || len(es.pairs) == 0 {
					t.Fatalf("%s P=%d: stream %d holds %d blocks and %d pairs; the test needs more than %d blocks",
						r.name, parallel, w, len(es.blocks), len(es.pairs), retainedBlocks)
				}
			}
			release()
			for w, es := range streams {
				if len(es.blocks) > retainedBlocks || cap(es.pairs) > retainedBlocks*blockLen {
					t.Errorf("%s P=%d: stream %d still holds %d blocks and room for %d pairs after release",
						r.name, parallel, w, len(es.blocks), cap(es.pairs))
				}
			}
		}
	}
}

// TestPairTableIndexesEveryEntry checks the pair table against the
// entries: every swept pair owns at least one entry, pair indices stay in
// range, and a pair's entries follow one another in emission order.
func TestPairTableIndexesEveryEntry(t *testing.T) {
	g := canonical.Mesh(12, 12)
	opts := Options{MaxSources: 60, Rand: rand.New(rand.NewSource(3)), Parallelism: 3}
	sources, inQ := sampleSources(g.NumNodes(), opts)
	streams, release := sweepPlain(g, &opts, sources, inQ)
	defer release()
	for w, es := range streams {
		used := make([]bool, len(es.pairs))
		for b := range es.heads {
			last := -1
			for _, seg := range es.segments(b, nil) {
				for _, p := range seg.entries {
					if int(p.pair) >= len(es.pairs) || int(p.pair) < last {
						t.Fatalf("stream %d bucket %d: pair %d after %d of %d", w, b, p.pair, last, len(es.pairs))
					}
					last = int(p.pair)
					used[p.pair] = true
				}
			}
		}
		for i, pr := range es.pairs {
			if !used[i] || pr.u >= pr.t || !inQ[pr.u] || !inQ[pr.t] {
				t.Fatalf("stream %d: pair %d = %+v, used %v", w, i, pr, used[i])
			}
		}
	}
}
