package graph

import "math/bits"

// BucketQueue is an exact priority queue over node ids in [0, n) keyed by
// small integers in [lo, hi]: pops come out by key descending, node id
// ascending. Each key owns one bitmap of node ids, so a pop takes the
// lowest set bit of the highest non-empty bucket and a key change (Remove,
// then Push) moves one bit between two buckets. The key is strict, so the
// pop order depends only on which nodes are queued at which key: any other
// queue ordered by the same key pops the same sequence, as the lazy binary
// heaps it replaced in FM refinement and the greedy vertex cover (kept as
// references in their packages' tests) do.
//
// A queue needs (hi−lo+1)·⌈n/64⌉ bitmap words. Its users drain it before
// the next Reset, so all bitmaps and counts are already zero and Reset only
// re-slices them. Like Stamp, a queue is single-owner state, not safe for
// concurrent use.
type BucketQueue struct {
	words   int           // bitmap words per bucket, ⌈n/64⌉
	off     int           // key k lives in bucket k+off
	bits    []uint64      // bucket b's bitmap is bits[b*words : (b+1)*words]
	buckets []queueBucket // per-bucket count and lowest-word cursor
	top     int           // no bucket above top holds a node; -1 when empty
}

type queueBucket struct {
	n   int32 // nodes queued at this key
	low int32 // no queued node lies in a word below this one
}

// Reset prepares an empty queue for node ids in [0, n) with keys in
// [lo, hi]. The queue must have been drained since the last Reset. Buffers
// grow to twice the need: callers see inputs of slowly increasing size
// (a centre's balls), and exact growth would reallocate for nearly every
// one.
func (q *BucketQueue) Reset(n, lo, hi int) {
	q.words = (n + 63) >> 6
	q.off = -lo
	nb := hi - lo + 1
	if need := nb * q.words; cap(q.bits) < need {
		q.bits = make([]uint64, need, 2*need)
	} else {
		q.bits = q.bits[:need]
	}
	if cap(q.buckets) < nb {
		q.buckets = make([]queueBucket, nb, 2*nb)
	} else {
		q.buckets = q.buckets[:nb]
	}
	q.top = -1
}

// Push queues v, which must not be queued, at key.
func (q *BucketQueue) Push(v int32, key int) {
	b := key + q.off
	w := v >> 6
	q.bits[b*q.words+int(w)] |= 1 << (v & 63)
	bk := &q.buckets[b]
	if bk.n == 0 || w < bk.low {
		bk.low = w
	}
	bk.n++
	if b > q.top {
		q.top = b
	}
}

// Remove takes v out of the queue if it is queued at key.
func (q *BucketQueue) Remove(v int32, key int) {
	b := key + q.off
	i := b*q.words + int(v>>6)
	if m := uint64(1) << (v & 63); q.bits[i]&m != 0 {
		q.bits[i] &^= m
		q.buckets[b].n--
	}
}

// Pop removes and returns the queued node with the highest key, lowest id
// first on ties; ok is false once the queue is empty.
func (q *BucketQueue) Pop() (v int32, ok bool) {
	for q.top >= 0 && q.buckets[q.top].n == 0 {
		q.top--
	}
	if q.top < 0 {
		return 0, false
	}
	bk := &q.buckets[q.top]
	row := q.bits[q.top*q.words : (q.top+1)*q.words]
	w := bk.low
	for row[w] == 0 {
		w++
	}
	bk.low = w
	bk.n--
	bit := bits.TrailingZeros64(row[w])
	row[w] &^= 1 << bit
	return w<<6 | int32(bit), true
}
