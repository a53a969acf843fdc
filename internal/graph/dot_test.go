package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	b := NewStreamBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	// node 3 isolated
	g := b.Graph()
	var buf bytes.Buffer
	err := g.WriteDOT(&buf, "demo", func(v int32) string {
		if v == 0 {
			return `color="red"`
		}
		return ""
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`graph "demo" {`, `0 [color="red"];`, "0 -- 1;", "1 -- 2;", "3;", "}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "1 -- 0") {
		t.Fatal("reverse edges should not be emitted")
	}
}

func TestWriteDOTDefaults(t *testing.T) {
	g := NewStreamBuilder(2)
	g.AddEdge(0, 1)
	var buf bytes.Buffer
	if err := g.Graph().WriteDOT(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `graph "G" {`) {
		t.Fatalf("default name missing:\n%s", buf.String())
	}
}
