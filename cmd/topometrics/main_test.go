package main

import "testing"

// TestCheckSizes checks that a negative -sources or -maxball ends in an
// error before any graph is read, instead of silently making every node a
// centre or lifting the ball cap, and that zero and positive sizes pass.
func TestCheckSizes(t *testing.T) {
	cases := []struct {
		sources, maxBall int
		ok               bool
	}{
		{24, 3000, true},
		{0, 0, true},
		{1, 1, true},
		{-1, 3000, false},
		{-24, 3000, false},
		{24, -5, false},
		{24, -1, false},
		{-1, -1, false},
	}
	for _, c := range cases {
		if err := checkSizes(c.sources, c.maxBall); (err == nil) != c.ok {
			t.Errorf("-sources %d -maxball %d: error %v, want ok=%v", c.sources, c.maxBall, err, c.ok)
		}
	}
}
