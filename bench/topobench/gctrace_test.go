package main

import (
	"strings"
	"testing"
)

// gctraceFixture is standard error of a go1.24 child run with
// GODEBUG=gctrace=1: background cycles, a forced one, and a line that is
// not part of the trace.
const gctraceFixture = `gc 1 @0.006s 2%: 0.018+0.95+0.004 ms clock, 0.036+0.17/0.64/0.73+0.009 ms cpu, 3->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P
gc 2 @0.103s 1%: 0.031+3.2+0.005 ms clock, 0.063+0.27/2.9/5.8+0.011 ms cpu, 412->419->207 MB, 414 MB goal, 0 MB stacks, 0 MB globals, 2 P
topobench child: a diagnostic line
gc 3 @0.250s 1%: 0.029+12+0.006 ms clock, 0.058+0.41/11/22+0.012 ms cpu, 405->406->266 MB, 414 MB goal, 0 MB stacks, 0 MB globals, 2 P (forced)
gc 4 @1.870s 2%: 0.044+25+0.008 ms clock, 0.088+1.2/24/47+0.016 ms cpu, 530->584->291 MB, 532 MB goal, 0 MB stacks, 0 MB globals, 2 P
`

func TestParseGCTrace(t *testing.T) {
	var other strings.Builder
	s, err := parseGCTrace(strings.NewReader(gctraceFixture), &other)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cycles != 4 || s.PeakMB != 584 {
		t.Errorf("got %+v, want 4 cycles, peak 584 MB", s)
	}
	if got := other.String(); got != "topobench child: a diagnostic line\n" {
		t.Errorf("other lines %q", got)
	}
}
