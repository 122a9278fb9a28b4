package experiments

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden from the current pipeline")

const goldenFile = "testdata/tables.golden"

// sections splits a Write rendering at its "Figure N" and "Table N"
// headings, so a mismatch can be reported by the table it lands in.
func sections(s string) (heads []string, bodies map[string]string) {
	bodies = map[string]string{}
	head := "(preamble)"
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "Figure ") || strings.HasPrefix(line, "Table ") {
			head = strings.TrimSpace(line)
			heads = append(heads, head)
		}
		bodies[head] += line
	}
	return heads, bodies
}

// lineDiff lists the lines at which got and want differ.
func lineDiff(got, want string) string {
	g := strings.Split(got, "\n")
	w := strings.Split(want, "\n")
	var b strings.Builder
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			fmt.Fprintf(&b, "  -%s\n  +%s\n", wl, gl)
		}
	}
	return b.String()
}

// TestGoldenTables regenerates every paper table and figure and diffs the
// rendering against the committed one, so any change to a measured number
// fails here naming its table. Regenerate with `go test
// ./internal/experiments -run TestGoldenTables -update` only when a change
// is meant to move the numbers, and record each moved row.
func TestGoldenTables(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, []string{"all"}); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if *update {
		if err := os.WriteFile(goldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotHeads, gotBodies := sections(got)
	wantHeads, wantBodies := sections(string(want))
	if strings.Join(gotHeads, "\n") != strings.Join(wantHeads, "\n") {
		t.Errorf("headings differ from %s:\n%s", goldenFile,
			lineDiff(strings.Join(gotHeads, "\n"), strings.Join(wantHeads, "\n")))
	}
	for _, h := range wantHeads {
		if g, ok := gotBodies[h]; ok && g != wantBodies[h] {
			t.Errorf("%s differs from %s (- golden, + now):\n%s", h, goldenFile, lineDiff(g, wantBodies[h]))
		}
	}
}
