package bench

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"text/tabwriter"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// cellSep splits a rendered table row into cells: the tabwriter pads every
// column with at least two spaces, and no cell holds two spaces in a row.
var (
	cellSep = regexp.MustCompile(` {2,}`)
	msCell  = regexp.MustCompile(`^\d+(\.\d+)?ms$`)
)

// maskTimings replaces every millisecond cell of the rendered tables with
// "#ms" and re-aligns the columns, so the text keeps only the deterministic
// columns: counts, sizes, verdicts and the Out of Memory decisions.
func maskTimings(s string) string {
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	for _, line := range strings.SplitAfter(s, "\n") {
		cells := cellSep.Split(strings.TrimRight(line, "\n"), -1)
		for i, c := range cells {
			if msCell.MatchString(c) {
				cells[i] = "#ms"
			}
		}
		tw.Write([]byte(strings.Join(cells, "\t")))
		if strings.HasSuffix(line, "\n") {
			tw.Write([]byte("\n"))
		}
	}
	tw.Flush()
	return b.String()
}

const tablesGolden = "testdata/tables.golden"

// TestTablesGolden pins every table of the paper's evaluation, timings
// masked. Regenerate with
//
//	go test ./internal/bench -run TestTablesGolden -update
func TestTablesGolden(t *testing.T) {
	out, err := All()
	if err != nil {
		t.Fatal(err)
	}
	got := maskTimings(out)
	if *update {
		if err := os.MkdirAll(filepath.Dir(tablesGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("tables differ from %s (-update to regenerate)\n--- got\n%s--- want\n%s", tablesGolden, got, want)
	}
}

// goldenTables splits the golden text into its tables, keyed by their
// header row (the line starting with BugID).
func goldenTables(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]string{}
	for _, block := range strings.Split(string(b), "\n\n") {
		lines := strings.SplitAfterN(block, "\n", 2)
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "BugID") {
			continue
		}
		body := strings.TrimSuffix(lines[1], "\n") + "\n"
		header, _, _ := strings.Cut(body, "\n")
		tables[header] = body
	}
	return tables
}

// TestExperimentsTablesMatchGolden checks that every fenced BugID block of
// EXPERIMENTS.md is its golden table, timings masked: the document cannot
// drift from what the code prints.
func TestExperimentsTablesMatchGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := goldenTables(t)
	var fenced []string
	var cur *strings.Builder
	for _, line := range strings.SplitAfter(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "```") && cur == nil:
			cur = &strings.Builder{}
		case strings.HasPrefix(line, "```"):
			fenced = append(fenced, cur.String())
			cur = nil
		case cur != nil:
			cur.WriteString(line)
		}
	}
	blocks := 0
	for _, part := range fenced {
		if !strings.HasPrefix(part, "BugID") {
			continue
		}
		blocks++
		block := maskTimings(part)
		header, _, _ := strings.Cut(block, "\n")
		want, ok := tables[header]
		if !ok {
			t.Errorf("EXPERIMENTS.md block with header %q matches no golden table", header)
			continue
		}
		if block != want {
			t.Errorf("EXPERIMENTS.md block %q drifted from %s\n--- doc\n%s--- golden\n%s", header, tablesGolden, block, want)
		}
	}
	if blocks != 7 {
		t.Errorf("EXPERIMENTS.md has %d fenced BugID blocks, want 7 (Tables 3–9)", blocks)
	}
}
