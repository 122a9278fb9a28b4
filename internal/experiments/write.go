package experiments

import (
	"fmt"
	"io"
)

// Write regenerates every experiment and writes them to w in paper order,
// each rendering followed by a blank line. testdata/tables.golden holds
// this output; `go test ./internal/experiments -run TestGoldenTables
// -update` regenerates it.
func Write(w io.Writer) error {
	r := NewRunner()
	suite := SuiteNames()

	f2, err := r.Figure2Mix(Table2Names())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f2.Render())
	f3, err := r.Figure3Amdahl(Table2Names())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, f3.Render())
	t1, err := r.Table1Compaction(suite)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t1.Render())
	t2, err := r.Table2Branches(Table2Names())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t2.Render())
	t3, err := r.Table3Sweep(suite, []int{1, 2, 3, 4, 5})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t3.Render())
	fmt.Fprintln(w, t3.RenderFigure6())
	t4, err := r.Table4Absolute(suite)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t4.Render())
	t5, err := r.Table5Relative(suite)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t5.Render())
	return nil
}
