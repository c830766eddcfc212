// Package deps mechanically verifies fire-rule correctness: it extracts the
// true data dependencies between strands (RAW, WAR and WAW conflicts in
// serial-elision order) from their declared footprints, and checks that
// every one of them is enforced by a path in the algorithm DAG produced by
// the DAG Rewriting System. A program that passes this check computes the
// same result as its serial elision under any legal parallel schedule.
package deps

import (
	"fmt"
	"math/bits"

	"github.com/ndflow/ndflow/internal/core"
	"github.com/ndflow/ndflow/internal/footprint"
)

// Kind classifies a data conflict between two strands.
type Kind uint8

const (
	// RAW: the later strand reads what the earlier strand wrote.
	RAW Kind = iota
	// WAR: the later strand overwrites what the earlier strand read.
	WAR
	// WAW: both strands write the same location.
	WAW
)

func (k Kind) String() string {
	switch k {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Conflict is a true data dependency between two strands: To must execute
// after From (their serial-elision order).
type Conflict struct {
	From, To *core.Node
	Kind     Kind
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s: %q (leaf %d) → %q (leaf %d)", c.Kind, c.From.Label, c.From.ID, c.To.Label, c.To.ID)
}

// Conflicts enumerates all true data dependencies between the program's
// strands, in serial-elision order. One conflict per ordered pair is
// reported, with RAW preferred over WAW over WAR when several apply.
func Conflicts(p *core.Program) []Conflict {
	var out []Conflict
	leaves := p.Leaves
	for i, a := range leaves {
		if a.Reads.Empty() && a.Writes.Empty() {
			continue
		}
		for _, b := range leaves[i+1:] {
			switch {
			case footprint.Intersects(a.Writes, b.Reads):
				out = append(out, Conflict{a, b, RAW})
			case footprint.Intersects(a.Writes, b.Writes):
				out = append(out, Conflict{a, b, WAW})
			case footprint.Intersects(a.Reads, b.Writes):
				out = append(out, Conflict{a, b, WAR})
			}
		}
	}
	return out
}

// Report is the result of validating a program's DAG against its true
// data dependencies.
type Report struct {
	Strands    int
	Conflicts  int        // true dependencies found
	Violations []Conflict // dependencies not enforced by the DAG
	Arrows     int        // solid arrows materialized by the DRS
}

// Ok reports whether the DAG enforces every true dependency.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	return fmt.Sprintf("strands=%d conflicts=%d arrows=%d violations=%d",
		r.Strands, r.Conflicts, r.Arrows, len(r.Violations))
}

// Check validates that the event graph enforces every true data dependency
// of the program, and that every arrow is forward in serial-elision order
// (so the serial elision itself is a legal schedule).
func Check(g *core.Graph) (*Report, error) {
	p := g.P
	arrows := g.SortedArrows()
	for _, a := range arrows {
		_, fromHi := a.From.LeafRange()
		toLo, _ := a.To.LeafRange()
		if fromHi > toLo {
			return nil, fmt.Errorf("arrow %q → %q is backwards in serial-elision order; depth-first execution would deadlock", a.From.Label, a.To.Label)
		}
	}

	conflicts := Conflicts(p)
	report := &Report{Strands: len(p.Leaves), Conflicts: len(conflicts), Arrows: len(arrows)}
	if len(conflicts) == 0 {
		return report, nil
	}

	reach := leafReachability(g)
	for _, c := range conflicts {
		fromLo, _ := c.From.LeafRange()
		if !reach.covers(fromLo, core.StartVertex(c.To)) {
			report.Violations = append(report.Violations, c)
		}
	}
	return report, nil
}

// leafReach holds, for every event-graph vertex, the bitset of leaves whose
// end vertex reaches it.
type leafReach struct {
	words int
	sets  [][]uint64
}

func leafReachability(g *core.Graph) *leafReach {
	eg := g.Exec()
	numLeaves := eg.NumStrands()
	words := (numLeaves + 63) / 64
	r := &leafReach{words: words, sets: make([][]uint64, eg.NumVertices())}
	for _, v := range eg.Topo() {
		set := make([]uint64, words)
		for _, u := range eg.Pred(v) {
			for w, x := range r.sets[u] {
				set[w] |= x
			}
		}
		if i := eg.VertexStrand(v); i >= 0 && eg.IsEnd(v) {
			set[i/64] |= 1 << (uint(i) % 64)
		}
		r.sets[v] = set
	}
	return r
}

func (r *leafReach) covers(leafIdx int, v int32) bool {
	return r.sets[v][leafIdx/64]&(1<<(uint(leafIdx)%64)) != 0
}

// CountOnes returns the total number of (leaf end → vertex) reachability
// facts; exposed for DRS statistics experiments.
func CountReachable(g *core.Graph) int64 {
	r := leafReachability(g)
	var total int64
	for _, set := range r.sets {
		for _, w := range set {
			total += int64(bits.OnesCount64(w))
		}
	}
	return total
}
