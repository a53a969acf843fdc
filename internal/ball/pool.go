package ball

import (
	"sync"

	"topocmp/internal/obs"
)

// Pool is the unified leased-workspace primitive behind every scratch family
// in the repository: BFS/subgraph traversal scratch, the per-ball kernel
// bundles, bit-parallel MSBFS and Brandes strips, and the metric-local
// workspaces (distortion's tree scratch, hierarchy's cover arrays). It wraps
// sync.Pool with the lease discipline those families share — check out, use
// exclusively, put back — and makes the traffic observable: gets counts
// checkouts, allocs counts the checkouts that had to build a fresh
// workspace, so reuse is always gets minus allocs.
//
// Workspace contents never influence results: a leased workspace behaves
// bit-identically to a fresh one (epoch-stamped arrays, fully rewritten
// buffers), so pooling is invisible to the determinism contract. Both
// counters are optional; an uninstrumented pool costs a nil check per event.
type Pool[T any] struct {
	pool   sync.Pool
	gets   *obs.Counter
	allocs *obs.Counter

	mu   sync.Mutex
	kept []T
	keep int
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

// Keep retains up to n returned workspaces on a strong free list consulted
// before the GC-clearable sync.Pool. sync.Pool drops its contents within two
// collections, which is right for small scratch but pathological for
// workspaces holding hundreds of megabytes: every few calls the buffers are
// freed, reallocated, and page-faulted back in, and the kernel time dwarfs
// the work they serve. Kept workspaces live until the pool itself is
// unreachable, so reserve Keep for a small n on the heavyweight families.
func (p *Pool[T]) Keep(n int) {
	p.mu.Lock()
	p.keep = n
	p.mu.Unlock()
}

// Get leases a workspace. The caller owns it exclusively until Put.
func (p *Pool[T]) Get() T {
	p.gets.Add(1)
	p.mu.Lock()
	if len(p.kept) > 0 {
		x := p.kept[len(p.kept)-1]
		p.kept = p.kept[:len(p.kept)-1]
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	return p.pool.Get().(T)
}

// Put returns a leased workspace to the pool.
func (p *Pool[T]) Put(x T) {
	p.mu.Lock()
	if len(p.kept) < p.keep {
		p.kept = append(p.kept, x)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.pool.Put(x)
}

// Lease runs fn with a leased workspace and returns it afterwards, the
// common single-scope checkout written as one call.
func (p *Pool[T]) Lease(fn func(T)) {
	x := p.Get()
	defer p.Put(x)
	fn(x)
}
