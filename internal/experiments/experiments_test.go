package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := Run(id, Config{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), tab.ID) {
		t.Fatalf("%s: print output missing ID", id)
	}
	return tab
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registered experiments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered experiments = %v, want %v", got, want)
		}
	}
	if _, err := Run("E0", Config{}); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestE1SpanShapes(t *testing.T) {
	tab := runQuick(t, "E1")
	// The last TRS row's NP/ND ratio must exceed 1 (the log n gap).
	var last []string
	for _, row := range tab.Rows {
		if row[0] == "TRS" {
			last = row
		}
	}
	ratio, err := strconv.ParseFloat(last[4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 1 {
		t.Fatalf("TRS NP/ND span ratio = %v, want > 1", ratio)
	}
}

func TestE2AllEqual(t *testing.T) {
	tab := runQuick(t, "E2")
	for _, row := range tab.Rows {
		if row[4] != "true" {
			t.Fatalf("work differs for %s: %v", row[0], row)
		}
	}
}

func TestE4AllBounded(t *testing.T) {
	tab := runQuick(t, "E4")
	for _, row := range tab.Rows {
		if row[6] != "true" {
			t.Fatalf("Theorem 1 violated: %v", row)
		}
	}
}

func TestE8AllCovered(t *testing.T) {
	tab := runQuick(t, "E8")
	for _, row := range tab.Rows {
		if row[5] != "true" {
			t.Fatalf("uncovered dependencies: %v", row)
		}
	}
}

func TestE5E6E7Run(t *testing.T) {
	runQuick(t, "E5")
	runQuick(t, "E6")
	runQuick(t, "E7")
	runQuick(t, "E3")
}

func TestAblationsRun(t *testing.T) {
	a1 := runQuick(t, "A1")
	if len(a1.Rows) != 5 {
		t.Fatalf("A1 rows = %d, want 5 sigma settings", len(a1.Rows))
	}
	a2 := runQuick(t, "A2")
	if len(a2.Rows) != 4 {
		t.Fatalf("A2 rows = %d, want 4 alpha settings", len(a2.Rows))
	}
}
