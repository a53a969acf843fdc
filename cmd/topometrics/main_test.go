package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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

// TestEmptyEdgeList runs the command on an edge list with no edges and on
// one whose header declares no nodes, under -metric all, attack and error:
// the graph has no nodes, and the command must print its empty curves and
// exit 0. Each run re-executes this test binary, which then runs main with
// the arguments in TOPOMETRICS_ARGS.
func TestEmptyEdgeList(t *testing.T) {
	if args := os.Getenv("TOPOMETRICS_ARGS"); args != "" {
		os.Args = append([]string{"topometrics"}, strings.Split(args, "\n")...)
		main()
		return
	}
	dir := t.TempDir()
	for name, body := range map[string]string{"empty.edges": "", "header.edges": "# nodes 0 edges 0\n"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, metric := range []string{"all", "attack", "error"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestEmptyEdgeList$")
			cmd.Env = append(os.Environ(), "TOPOMETRICS_ARGS="+strings.Join([]string{"-metric", metric, "-ascii=false", path}, "\n"))
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("%s -metric %s: %v\n%s", name, metric, err, out)
			}
		}
	}
}
