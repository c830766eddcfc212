package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden experiment tables in testdata/")

// render prints the table exactly as ndbench does.
func render(tab *Table) string {
	var sb strings.Builder
	tab.Fprint(&sb)
	return sb.String()
}

// TestGoldenTables locks the experiment harness down: every registered
// experiment, at Quick sizes, must render exactly the checked-in table.
// A refactor that silently changes a reproduced paper number (a span, a
// miss count, a makespan, an αmax) fails here. Regenerate deliberately
// with:
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Config{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			got := render(tab)
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("table %s drifted from its golden record.\n--- got ---\n%s--- want ---\n%s(regenerate deliberately with -update if the change is intended)",
					id, got, want)
			}
		})
	}
}

// TestGoldenTablesDeterministic guards the golden scheme itself: two
// back-to-back runs of every experiment must render
// identically, so golden failures always mean drift, never flake.
func TestGoldenTablesDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	for _, id := range IDs() {
		a, err := Run(id, Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if render(a) != render(b) {
			t.Fatalf("%s renders differently across identical runs; it cannot be golden-tested", id)
		}
	}
}
