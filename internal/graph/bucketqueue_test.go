package graph

import (
	"math/rand"
	"testing"
)

// TestBucketQueueMatchesScan drives a queue with random pushes, re-keys,
// removals and pops and checks every pop against a linear scan for the
// (key descending, id ascending) maximum of the queued set. Key ranges
// include negative keys, and ids span several bitmap words.
func TestBucketQueueMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var q BucketQueue
	for round := 0; round < 200; round++ {
		n := 1 + r.Intn(300)
		lo := r.Intn(20) - 10
		hi := lo + r.Intn(30)
		q.Reset(n, lo, hi)
		key := make([]int, n)
		queued := make([]bool, n)
		randKey := func() int { return lo + r.Intn(hi-lo+1) }
		for v := 0; v < n; v++ {
			key[v] = randKey()
			if r.Intn(3) > 0 {
				queued[v] = true
				q.Push(int32(v), key[v])
			}
		}
		for {
			v := int32(r.Intn(n))
			switch op := r.Intn(4); {
			case op == 0 && queued[v]:
				q.Remove(v, key[v])
				queued[v] = false
			case op == 1: // re-key v, re-queueing it if it had left
				q.Remove(v, key[v])
				key[v], queued[v] = randKey(), true
				q.Push(v, key[v])
			}
			want := int32(-1)
			for u := 0; u < n; u++ {
				if queued[u] && (want < 0 || key[u] > key[want]) {
					want = int32(u)
				}
			}
			got, ok := q.Pop()
			if want < 0 {
				if ok {
					t.Fatalf("round %d: popped %d from an empty queue", round, got)
				}
				break
			}
			if !ok || got != want {
				t.Fatalf("round %d: pop = %d, %v; want %d at key %d", round, got, ok, want, key[want])
			}
			queued[want] = false
		}
	}
}
