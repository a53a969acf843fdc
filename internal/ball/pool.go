package ball

import (
	"sync"

	"topocmp/internal/obs"
)

// Pool is the unified leased-workspace primitive behind every scratch family
// in the repository: the ball engine's per-worker Kernels bundles and the
// metric-local workspaces (distortion's tree scratch, clustering's marks,
// the vertex cover's and hierarchy's cover arrays, the link-value sweeps'
// scratch). It wraps sync.Pool with the lease discipline those families
// share — check out, use exclusively, put back — and makes the traffic
// observable: gets counts checkouts, allocs counts the checkouts that had to
// build a fresh workspace, so reuse is always gets minus allocs.
//
// Workspace contents never influence results: a leased workspace behaves
// bit-identically to a fresh one (epoch-stamped arrays, fully rewritten
// buffers), so pooling is invisible to the determinism contract. Both
// counters are optional; an uninstrumented pool costs a nil check per event.
type Pool[T any] struct {
	pool   sync.Pool
	gets   *obs.Counter
	allocs *obs.Counter
}

// NewPool returns a pool that builds fresh workspaces with fresh.
func NewPool[T any](fresh func() T) *Pool[T] {
	p := &Pool[T]{}
	p.pool.New = func() any {
		p.allocs.Add(1)
		return fresh()
	}
	return p
}

// Instrument attaches the checkout counters; nil counters stay silent.
// Attach before the first Get — the alloc counter is read inside the pool's
// miss path.
func (p *Pool[T]) Instrument(gets, allocs *obs.Counter) {
	p.gets, p.allocs = gets, allocs
}

// Get leases a workspace. The caller owns it exclusively until Put.
func (p *Pool[T]) Get() T {
	p.gets.Add(1)
	return p.pool.Get().(T)
}

// Put returns a leased workspace to the pool, which the collector may empty
// at any cycle.
func (p *Pool[T]) Put(x T) {
	p.pool.Put(x)
}
