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
// driver: four sweep workers lease MSBFS workspaces and entry streams from
// the shared pool and emit concurrently, while sibling goroutines drive
// more LinkValues and TraversalSetSizes calls through the same pool with
// each row provider forced. Every parallel result must stay bit-identical
// to the sequential scalar reference — the worker-ordered bucket walk is
// what makes that deterministic, and the race detector checks the leases.
func TestLinkValueRaceShort(t *testing.T) {
	g := plrg.MustGenerate(rand.New(rand.NewSource(41)), plrg.Params{N: 900, Beta: 2.246})
	opts := func(p hierarchy.Provider, parallel int) hierarchy.Options {
		return hierarchy.Force(hierarchy.Options{
			MaxSources:  96,
			Rand:        rand.New(rand.NewSource(9)),
			Parallelism: parallel,
		}, p)
	}
	want := hierarchy.LinkValues(g, opts(hierarchy.ScalarRows, 1))
	wantTS := hierarchy.TraversalSetSizes(g, opts(hierarchy.ScalarRows, 1))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		p := hierarchy.BatchedRows
		if w%2 == 1 {
			p = hierarchy.ScalarRows
		}
		wg.Add(1)
		go func(p hierarchy.Provider) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				got := hierarchy.LinkValues(g, opts(p, 4))
				if !reflect.DeepEqual(got.Values, want.Values) {
					t.Errorf("provider=%d: parallel link values differ from sequential scalar", p)
					return
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 3; k++ {
			got := hierarchy.TraversalSetSizes(g, opts(hierarchy.BatchedRows, 4))
			if !reflect.DeepEqual(got, wantTS) {
				t.Error("batched traversal-set sizes differ from scalar under load")
				return
			}
		}
	}()
	wg.Wait()
}
