package main

import (
	"bufio"
	"io"
	"regexp"
	"strconv"
)

// gcHeapSizes matches the heap-size triple of a runtime GC trace line
// (GODEBUG=gctrace=1). The go1.24 form is
//
//	gc 7 @0.352s 3%: 0.013+2.1+0.004 ms clock, 0.027+0.31/1.9/3.6+0.009 ms cpu, 48->50->24 MB, 50 MB goal, 0 MB stacks, 0 MB globals, 2 P
//
// where the sizes are the heap when the cycle started, the heap when it
// ended, and the live heap it marked. The peak is the largest of the first
// two; the live heap understates it.
var gcHeapSizes = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: .* (\d+)->(\d+)->\d+ MB`)

// gcSummary is what a child's GC trace says about its heap.
type gcSummary struct {
	Cycles int
	PeakMB float64 // largest heap size at the start or end of any cycle
}

// parseGCTrace reads a child's standard error, folds every GC trace line
// into the summary and copies every other line to other.
func parseGCTrace(r io.Reader, other io.Writer) (gcSummary, error) {
	var s gcSummary
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := gcHeapSizes.FindStringSubmatch(line)
		if m == nil {
			if other != nil {
				io.WriteString(other, line+"\n") //nolint:errcheck // diagnostics only
			}
			continue
		}
		s.Cycles++
		for _, field := range m[1:] {
			if v, err := strconv.ParseFloat(field, 64); err == nil && v > s.PeakMB {
				s.PeakMB = v
			}
		}
	}
	return s, sc.Err()
}
