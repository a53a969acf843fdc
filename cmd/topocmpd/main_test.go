package main

import (
	"testing"
	"time"
)

// TestCheckFlags checks that a negative -j, -max-inflight, -deadline or
// -drain ends in an error before the daemon starts, never in a silent
// default, and that zero and positive values pass.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		workers, maxInFlight int
		deadline, drain      time.Duration
		ok                   bool
	}{
		{0, 2, 0, 30 * time.Second, true},
		{0, 0, 0, 0, true},
		{8, 16, time.Minute, time.Second, true},
		{-3, 2, 0, 30 * time.Second, false},
		{-1, 2, 0, 30 * time.Second, false},
		{0, -1, 0, 30 * time.Second, false},
		{0, 2, -time.Second, 30 * time.Second, false},
		{0, 2, 0, -time.Nanosecond, false},
		{-1, -1, -1, -1, false},
	}
	for _, c := range cases {
		err := checkFlags(c.workers, c.maxInFlight, c.deadline, c.drain)
		if (err == nil) != c.ok {
			t.Errorf("-j %d -max-inflight %d -deadline %v -drain %v: error %v, want ok=%v",
				c.workers, c.maxInFlight, c.deadline, c.drain, err, c.ok)
		}
	}
}
