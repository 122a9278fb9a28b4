package emu

import (
	"testing"

	"symbol/internal/benchprog"
	"symbol/internal/compile"
	"symbol/internal/exec"
	"symbol/internal/expand"
	"symbol/internal/ic"
	"symbol/internal/parse"
	"symbol/internal/rename"
)

// minCatalogDispatches is the fewest corpus-wide dispatches a
// superinstruction must earn to stay in the fusion catalog (fuse.go): a
// pair that runs less than this is a case in runFast that only costs code.
const minCatalogDispatches = 1000

// corpusProgram runs the front end the way symbol.Load does: parse, BAM
// compile with the default options, ICI expand, rename.
func corpusProgram(t *testing.T, src string) *ic.Program {
	t.Helper()
	clauses, err := parse.All(src)
	if err != nil {
		t.Fatal(err)
	}
	c := compile.New(compile.DefaultOptions())
	if err := c.AddProgram(clauses); err != nil {
		t.Fatal(err)
	}
	unit, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := expand.Translate(unit, c.Atoms())
	if err != nil {
		t.Fatal(err)
	}
	return rename.Fold(prog)
}

// TestFusedCatalogExecutes runs every corpus program once on the fused
// core and requires each superinstruction of the catalog to be dispatched
// at least minCatalogDispatches times in all.
func TestFusedCatalogExecutes(t *testing.T) {
	var disp [256]int64
	var steps int64
	for _, b := range benchprog.All() {
		m := New(corpusProgram(t, b.Source), Options{})
		res, err := m.Run()
		m.rt.St.Free()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		steps += res.Steps
		for c, n := range m.ctr.mix.Disp {
			disp[c] += n
		}
	}
	var total int64
	for _, n := range disp {
		total += n
	}
	for c := exec.XCode(0); c < exec.NumCodes; c++ {
		if !c.Fused() {
			continue
		}
		t.Logf("%-16s %10d", c, disp[c])
		if disp[c] < minCatalogDispatches {
			t.Errorf("%s dispatched %d times over the corpus, want at least %d", c, disp[c], minCatalogDispatches)
		}
	}
	t.Logf("corpus: %d steps, %d dispatches", steps, total)
}
