// Package experiments regenerates every quantitative artifact of the
// paper — the §3 span theorems, Claim 1's cache complexities, Theorem 1's
// per-level miss bounds, Theorem 3's running-time bound, Claims 2–3's
// parallelizability orderings, and the scheduler comparisons — as printed
// tables. Each experiment is registered under the ID used in DESIGN.md's
// experiment index (E1…E8, A1…A2).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-text note printed under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Config controls experiment sizes. Quick shrinks problem sizes for the
// golden tests and CI.
type Config struct {
	Quick bool
}

// sizes picks a size ladder depending on the configuration.
func (c Config) sizes(quick, full []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// Runner produces one experiment table.
type Runner func(Config) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[id] = r
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// RunAll executes every registered experiment.
func RunAll(cfg Config, w io.Writer) error {
	for _, id := range IDs() {
		t, err := Run(id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		t.Fprint(w)
	}
	return nil
}
