package hierarchy_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"topocmp/internal/gen/plrg"
	"topocmp/internal/hierarchy"
)

// TestLinkValueRaceShort is the tier-2 race target for the link-value
// driver: four sweep workers lease BFS workspaces and entry streams from
// the shared pool and emit concurrently, while sibling goroutines drive
// more LinkValues and TraversalSetSizes calls through the same pool. Every
// parallel result must stay bit-identical to the sequential reference —
// the worker-ordered bucket walk is what makes that deterministic, and the
// race detector checks the leases.
func TestLinkValueRaceShort(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(41)), plrg.Params{N: 900, Beta: 2.246})
	opts := func(parallel int) hierarchy.Options {
		return hierarchy.Options{
			MaxSources:  96,
			Rand:        rand.New(rand.NewSource(9)),
			Parallelism: parallel,
		}
	}
	want := hierarchy.LinkValues(g, opts(1))
	wantTS := hierarchy.TraversalSetSizes(g, opts(1))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got := hierarchy.LinkValues(g, opts(4))
				if !reflect.DeepEqual(got.Values, want.Values) {
					t.Error("parallel link values differ from sequential")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 3; k++ {
			got := hierarchy.TraversalSetSizes(g, opts(4))
			if !reflect.DeepEqual(got, wantTS) {
				t.Error("parallel traversal-set sizes differ from sequential under load")
				return
			}
		}
	}()
	wg.Wait()
}
