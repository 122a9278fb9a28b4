package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// docSection returns the body of the EXPERIMENTS.md section whose "## "
// heading starts with prefix.
func docSection(doc, prefix string) string {
	for _, s := range strings.Split(doc, "\n## ")[1:] {
		if strings.HasPrefix(s, prefix) {
			return s
		}
	}
	return ""
}

// docRows returns the cells of a markdown section's table rows, skipping
// the header and separator rows and the ** emphasis.
func docRows(section string) [][]string {
	var rows [][]string
	header := true
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		if strings.HasPrefix(line, "|---") {
			header = false
			continue
		}
		if header {
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(strings.ReplaceAll(c, "**", "")))
		}
		rows = append(rows, cells)
	}
	return rows
}

// goldenLine returns the line of a golden section whose first field is
// first.
func goldenLine(body, first string) string {
	for _, line := range strings.Split(body, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == first {
			return line
		}
	}
	return ""
}

// sameNumber reports whether doc, a number as EXPERIMENTS.md prints it,
// is golden rounded to doc's decimal places.
func sameNumber(doc, golden string) bool {
	doc, golden = strings.TrimSuffix(doc, "%"), strings.TrimSuffix(golden, "%")
	g, err := strconv.ParseFloat(golden, 64)
	if err != nil {
		return false
	}
	places := 0
	if i := strings.IndexByte(doc, '.'); i >= 0 {
		places = len(doc) - i - 1
	}
	return strconv.FormatFloat(g, 'f', places, 64) == doc
}

// TestExperimentsDoc checks the measured numbers EXPERIMENTS.md quotes in
// its Figure 2, Table 3 and Table 4 tables against testdata/tables.golden,
// so the document cannot drift from the tables TestGoldenTables pins.
func TestExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	heads, bodies := sections(string(golden))
	gold := func(prefix string) string {
		for _, h := range heads {
			if strings.HasPrefix(h, prefix) {
				return bodies[h]
			}
		}
		t.Fatalf("%s: no %q section", goldenFile, prefix)
		return ""
	}
	rows := func(prefix string, width int) [][]string {
		rs := docRows(docSection(string(doc), prefix))
		if len(rs) == 0 {
			t.Fatalf("EXPERIMENTS.md: no table under %q", prefix)
		}
		for _, r := range rs {
			if len(r) != width {
				t.Fatalf("EXPERIMENTS.md %s: row %q has %d cells, want %d", prefix, r, len(r), width)
			}
		}
		return rs
	}
	check := func(where, doc, golden string) {
		if !sameNumber(doc, golden) {
			t.Errorf("EXPERIMENTS.md %s: %s, %s has %s", where, doc, goldenFile, golden)
		}
	}

	// Figure 2: each class share is the golden average row's column.
	fig2 := gold("Figure 2")
	classes := strings.Fields(goldenLine(fig2, "benchmark"))
	avg := strings.Fields(goldenLine(fig2, "average"))
	for _, r := range rows("Figure 2", 2) {
		col := -1
		for i, c := range classes {
			if c == r[0] {
				col = i
			}
		}
		if col < 0 || col >= len(avg) {
			t.Errorf("EXPERIMENTS.md Figure 2: class %q not in %s", r[0], goldenFile)
			continue
		}
		check("Figure 2 "+r[0], r[1], avg[col])
	}

	// Table 3: the BAM stand-in and N-unit speed-ups are the golden
	// average row's BAM and N-unit columns.
	avg = strings.Split(goldenLine(gold("Table 3"), "average"), "|")
	for _, r := range rows("Table 3", 2) {
		col := 1
		if !strings.HasPrefix(r[0], "BAM") {
			n, err := strconv.Atoi(strings.Fields(r[0])[0])
			if err != nil {
				t.Errorf("EXPERIMENTS.md Table 3: config %q", r[0])
				continue
			}
			col = 1 + n
		}
		if col >= len(avg) {
			t.Errorf("EXPERIMENTS.md Table 3: %q has no %s column", r[0], goldenFile)
			continue
		}
		check("Table 3 "+r[0], r[1], strings.TrimSpace(avg[col]))
	}

	// Table 4: each benchmark's paper and measured milliseconds are its
	// golden row's Symbol-3* and measured columns.
	t4 := gold("Table 4")
	for _, r := range rows("Table 4", 3) {
		f := strings.Fields(strings.ReplaceAll(goldenLine(t4, r[0]), "|", ""))
		if len(f) != 8 {
			t.Errorf("EXPERIMENTS.md Table 4: benchmark %q not in %s", r[0], goldenFile)
			continue
		}
		check("Table 4 "+r[0]+" paper", r[1], f[5])
		check("Table 4 "+r[0]+" measured", r[2], f[7])
	}
}
