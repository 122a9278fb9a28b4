package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Write regenerates the selected experiments and writes them to w in paper
// order, each rendering followed by a blank line. exps holds experiment
// names (fig2, fig3, table1, table2, fig4, table3, fig6, table4, table5);
// "all" selects every one. This is the output of `symbolbench -exp`;
// testdata/tables.golden holds it for "all".
func Write(w io.Writer, exps []string) error {
	want := map[string]bool{}
	for _, e := range exps {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(names ...string) bool {
		if want["all"] {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}
	r := NewRunner()
	suite := SuiteNames()

	if sel("fig2") {
		f2, err := r.Figure2Mix(Table2Names())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, f2.Render())
	}
	if sel("fig3") {
		f3, err := r.Figure3Amdahl(Table2Names())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, f3.Render())
	}
	if sel("table1") {
		t1, err := r.Table1Compaction(suite)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t1.Render())
	}
	if sel("table2", "fig4") {
		t2, err := r.Table2Branches(Table2Names())
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t2.Render())
	}
	if sel("table3", "fig6") {
		t3, err := r.Table3Sweep(suite, []int{1, 2, 3, 4, 5})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t3.Render())
		fmt.Fprintln(w, t3.RenderFigure6())
	}
	if sel("table4") {
		t4, err := r.Table4Absolute(suite)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t4.Render())
	}
	if sel("table5") {
		t5, err := r.Table5Relative(suite)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t5.Render())
	}
	return nil
}
