package core

import (
	"fmt"
	"slices"
	"sort"
)

// Rewrite runs the DAG Rewriting System on a frozen program: every fire
// construct's dashed arrow is recursively rewritten using the program's
// rule set until all arrows connect concrete tasks, yielding the event
// graph of the algorithm DAG.
//
// The rewriting follows §2 of the paper:
//
//   - a serial node contributes solid arrows between consecutive children;
//   - a parallel node contributes nothing;
//   - a fire node contributes a dashed arrow of its type between its two
//     children, which is rewritten by the fire rules. A dashed arrow whose
//     endpoints are both strands becomes a solid arrow (or vanishes if the
//     type has no rules). Otherwise each rule +p T~> -q adds an arrow of
//     type T from the source's subtask at pedigree p to the sink's subtask
//     at q; rules typed FullDep add solid arrows directly.
//
// Descending a pedigree stops early at strands, so recursion that
// terminates at different depths on the two sides attaches dependencies to
// whole base-case strands, which is conservative and race-free.
func Rewrite(p *Program) (*Graph, error) {
	d := newDRS(p)
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindSeq:
			for i := 0; i+1 < len(n.Children); i++ {
				if err := d.g.addArrow(n.Children[i], n.Children[i+1]); err != nil {
					return nil, err
				}
			}
		case KindFire:
			if err := d.rewrite(d.typeOf[n.FireType], n.Children[0], n.Children[1]); err != nil {
				return nil, err
			}
		}
	}
	if err := d.g.finish(); err != nil {
		return nil, err
	}
	return d.g, nil
}

// fullDep is the compiled type index of FullDep.
const fullDep = -1

// compiledRule is a Rule resolved against its rule set.
type compiledRule struct {
	Rule
	typ  int32 // index into drs.rules, or fullDep
	wild bool  // Src or Dst contains a Wildcard: needs DescendAll
}

// drs is the state of one Rewrite. The rule set is compiled once into
// int-indexed tables, so applying a rule hashes no string and allocates
// nothing: only the dedup set and the arrow list can grow, and both are
// sized from the program.
type drs struct {
	g      *Graph
	names  []string         // fire type names, sorted; the index is the compiled type
	typeOf map[string]int32 // inverse of names, read once per fire node
	rules  [][]compiledRule // per compiled type
	seen   dashedSet
	stack  []*Node // DescendAll scratch, used as a stack by the recursion
}

func newDRS(p *Program) *drs {
	d := &drs{
		g:      &Graph{P: p, arrows: make([]uint64, 0, 2*len(p.Nodes))},
		names:  make([]string, 0, len(p.Rules)),
		typeOf: make(map[string]int32, len(p.Rules)),
		rules:  make([][]compiledRule, len(p.Rules)),
		seen:   newDashedSet(len(p.Nodes)),
		stack:  make([]*Node, 0, 64), // two nodes per recursion level unless a rule broadcasts
	}
	for name := range p.Rules {
		d.names = append(d.names, name)
	}
	sort.Strings(d.names)
	total := 0
	for i, name := range d.names {
		d.typeOf[name] = int32(i)
		total += len(p.Rules[name])
	}
	all := make([]compiledRule, 0, total) // one table, cut per type
	for i, name := range d.names {
		from := len(all)
		for _, r := range p.Rules[name] {
			c := compiledRule{Rule: r, typ: fullDep, wild: slices.Contains(r.Src, Wildcard) || slices.Contains(r.Dst, Wildcard)}
			if r.Type != FullDep {
				c.typ = d.typeOf[r.Type] // defined: NewProgram validated the set
			}
			all = append(all, c)
		}
		d.rules[i] = all[from:]
	}
	return d
}

// rewrite refines the dashed arrow of compiled type typ from a to b.
func (d *drs) rewrite(typ int32, a, b *Node) error {
	rules := d.rules[typ]
	if len(rules) == 0 || !d.seen.add(dashedKey{typ + 1, int32(a.ID), int32(b.ID)}) {
		return nil // behaves like "‖", or already refined
	}
	if a.IsLeaf() || b.IsLeaf() {
		// At least one endpoint is a base-case strand: the dashed
		// arrow becomes a solid full dependency. When both sides
		// recurse in lockstep (equal task sizes, as in all the
		// paper's algorithms) both endpoints are strands here; with
		// mismatched depths this is conservative but never unsafe.
		return d.g.addArrow(a, b)
	}
	for i := range rules {
		// Both frontiers sit on the stack above base while the recursion
		// below pushes its own; a regrown stack leaves them readable.
		r, base := &rules[i], len(d.stack)
		var err error
		if d.stack, err = descend(a, r.Src, r.wild, d.stack); err != nil {
			return d.ruleError(typ, r, ", source side", err)
		}
		mid := len(d.stack)
		if d.stack, err = descend(b, r.Dst, r.wild, d.stack); err != nil {
			return d.ruleError(typ, r, ", sink side", err)
		}
		sas, sbs := d.stack[base:mid], d.stack[mid:]
		for _, sa := range sas {
			for _, sb := range sbs {
				if r.typ != fullDep {
					err = d.rewrite(r.typ, sa, sb)
				} else if err = d.g.addArrow(sa, sb); err != nil {
					err = d.ruleError(typ, r, "", err)
				}
				if err != nil {
					return err
				}
			}
		}
		d.stack = d.stack[:base]
	}
	return nil
}

// descend pushes the nodes pedigree p reaches from n: the one Descend
// finds, or for a rule with a Wildcard all that DescendAll does.
func descend(n *Node, p Pedigree, wild bool, stack []*Node) ([]*Node, error) {
	if wild {
		return n.DescendAll(p, stack)
	}
	m, err := n.Descend(p)
	return append(stack, m), err
}

func (d *drs) ruleError(typ int32, r *compiledRule, side string, err error) error {
	return fmt.Errorf("fire type %q, rule %s%s: %w", d.names[typ], r.Rule, side, err)
}

// dashedSet is the DRS's dedup set of dashed arrows (type, source node,
// sink node): open addressing over one slice, sized from the program —
// the paper's rule sets refine 0.5–2.1 dashed arrows per spawn-tree node,
// the table holds 2.6 — so that it regrows only for denser rule sets.
type dashedSet struct {
	slots []dashedKey
	used  int
}

// dashedKey stores typ plus one, so the zero key marks a free slot.
type dashedKey struct{ typ, a, b int32 }

func newDashedSet(nodes int) dashedSet {
	return dashedSet{slots: make([]dashedKey, 4*nodes+16)}
}

// add inserts the key and reports whether it was absent.
func (s *dashedSet) add(k dashedKey) bool {
	if 3*(s.used+1) > 2*len(s.slots) {
		old := s.slots
		*s = dashedSet{slots: make([]dashedKey, 2*len(old))}
		for _, o := range old {
			if o != (dashedKey{}) {
				s.add(o)
			}
		}
	}
	h := (uint64(uint32(k.a))<<32 | uint64(uint32(k.b))) ^ uint64(k.typ)*pedigreeMul
	// The mixed hash's high word, scaled to the table length, is the home slot.
	for i := int(h * pedigreeSeed >> 32 * uint64(len(s.slots)) >> 32); ; i++ {
		if i == len(s.slots) {
			i = 0
		}
		switch s.slots[i] {
		case dashedKey{}:
			s.slots[i] = k
			s.used++
			return true
		case k:
			return false
		}
	}
}

// MustRewrite is Rewrite for programs known to be well-formed; it panics on
// error and is intended for tests and examples.
func MustRewrite(p *Program) *Graph {
	g, err := Rewrite(p)
	if err != nil {
		panic(err)
	}
	return g
}
