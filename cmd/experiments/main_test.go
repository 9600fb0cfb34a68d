package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// goldenSteps are the deterministic steps: every one but fig3 and
// observe, whose columns are wall-clock times.
const goldenSteps = "table1,fig2,table3,table4,fig4,fig5,ablation-calls,ablation-beta,updates,xmark"

// TestExperimentsMatchGolden runs the deterministic steps through the
// command's own step table and diffs the output against
// testdata/golden.txt, the output of
//
//	go run ./cmd/experiments -run <goldenSteps>
//
// A change that moves a paper number re-takes the golden with that
// command and says why.
func TestExperimentsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runSteps(&got, 1, strings.Split(goldenSteps, ",")); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from testdata/golden.txt at line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
