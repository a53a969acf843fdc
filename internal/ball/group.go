package ball

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Group runs functions on goroutines of their own and waits for them. A
// panic on one of them does not end the process where it happens: the group
// keeps the first one, and Wait re-raises it on the waiting goroutine once
// every function has returned, so a caller that recovers panics (the
// serving layer's compute goroutine) sees it as its own. Workers that loop
// over many units poll Stopped to give up early after a panic elsewhere in
// the group. The zero value is ready to use; a Group must not be reused
// after Wait.
type Group struct {
	wg      sync.WaitGroup
	stopped atomic.Bool
	mu      sync.Mutex
	first   *WorkerPanic
}

// WorkerPanic is the value Group.Wait re-raises: the first panic among the
// group's functions and the stack of the goroutine it was raised on. A
// WorkerPanic from a nested group passes through unwrapped, so the stack is
// always the innermost one.
type WorkerPanic struct {
	Value any
	Stack []byte
}

func (p *WorkerPanic) Error() string { return fmt.Sprint(p.Value) }

// Go runs f on a new goroutine of the group.
func (g *Group) Go(f func()) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				g.fail(p)
			}
		}()
		f()
	}()
}

func (g *Group) fail(p any) {
	wp, ok := p.(*WorkerPanic)
	if !ok {
		wp = &WorkerPanic{Value: p, Stack: debug.Stack()}
	}
	g.mu.Lock()
	if g.first == nil {
		g.first = wp
	}
	g.mu.Unlock()
	g.stopped.Store(true)
}

// Stopped reports whether a function of the group has panicked.
func (g *Group) Stopped() bool { return g.stopped.Load() }

// Wait blocks until every function of the group has returned, then
// re-raises the first panic among them, if any.
func (g *Group) Wait() {
	g.wg.Wait()
	if g.first != nil {
		panic(g.first)
	}
}
