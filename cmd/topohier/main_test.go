package main

import "testing"

// TestCheckSizes checks that a negative -sources or -top ends in an error
// before any graph is read, never in a full-pair sweep or a slice panic,
// and that zero and positive sizes pass.
func TestCheckSizes(t *testing.T) {
	cases := []struct {
		sources, top int
		ok           bool
	}{
		{448, 10, true},
		{0, 0, true},
		{1, 1 << 20, true},
		{-5, 10, false},
		{-1, 10, false},
		{448, -1, false},
		{448, -100, false},
		{-1, -1, false},
	}
	for _, c := range cases {
		if err := checkSizes(c.sources, c.top); (err == nil) != c.ok {
			t.Errorf("-sources %d -top %d: error %v, want ok=%v", c.sources, c.top, err, c.ok)
		}
	}
}
