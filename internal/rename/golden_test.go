package rename

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"symbol/internal/benchprog"
	"symbol/internal/compile"
	"symbol/internal/expand"
	"symbol/internal/ic"
	"symbol/internal/parse"
	"symbol/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current Fold")

const goldenFile = "testdata/golden.sha256"

// expandSource runs the front end up to (not including) renaming: parse,
// BAM compile with the default options, ICI expand.
func expandSource(tb testing.TB, src string) *ic.Program {
	tb.Helper()
	clauses, err := parse.All(src)
	if err != nil {
		tb.Fatal(err)
	}
	c := compile.New(compile.DefaultOptions())
	if err := c.AddProgram(clauses); err != nil {
		tb.Fatal(err)
	}
	unit, err := c.Compile()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := expand.Translate(unit, c.Atoms())
	if err != nil {
		tb.Fatal(err)
	}
	return prog
}

// programHash is the SHA-256 of the program's ic.AppendProgram encoding.
func programHash(p *ic.Program) string {
	var w wire.Writer
	ic.AppendProgram(&w, p)
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestGoldenCorpus pins the renamed code of every corpus program byte for
// byte. Regenerate with `go test ./internal/rename -run TestGoldenCorpus
// -update` only when a change to the front end is meant to change code.
func TestGoldenCorpus(t *testing.T) {
	var sb strings.Builder
	for _, b := range benchprog.All() {
		fmt.Fprintf(&sb, "%s  %s\n", programHash(Fold(expandSource(t, b.Source))), b.Name)
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
	if got != string(want) {
		t.Errorf("renamed corpus differs from %s\ngot:\n%swant:\n%s", goldenFile, got, want)
	}
}

// TestFoldLeavesInput checks that Fold builds a fresh program and leaves
// the one it was given untouched.
func TestFoldLeavesInput(t *testing.T) {
	b, err := benchprog.Get("boyer")
	if err != nil {
		t.Fatal(err)
	}
	prog := expandSource(t, b.Source)
	before := programHash(prog)
	Fold(prog)
	if programHash(prog) != before {
		t.Fatal("Fold modified its input program")
	}
}
