package partition

// BisectHeap is Bisect on the lazy-heap reference refinement (heap_test.go),
// for the external differential tests.
var BisectHeap = bisectHeap
