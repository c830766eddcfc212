package core

import (
	"fmt"

	"github.com/ndflow/ndflow/internal/footprint"
)

// Kind classifies spawn tree nodes.
type Kind uint8

const (
	// KindStrand is a leaf: a segment of serial code with no parallel
	// constructs.
	KindStrand Kind = iota
	// KindSeq is the serial composition ";" (n-ary, executed left to right).
	KindSeq
	// KindPar is the parallel composition "‖" (n-ary, no dependencies).
	KindPar
	// KindFire is the dataflow composition "~>" (binary, partial
	// dependencies given by the fire rules of its type).
	KindFire
)

func (k Kind) String() string {
	switch k {
	case KindStrand:
		return "strand"
	case KindSeq:
		return "seq"
	case KindPar:
		return "par"
	case KindFire:
		return "fire"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Node is a spawn tree node. A subtree rooted at any node is a task.
// Nodes are created with NewStrand, NewSeq, NewPar and NewFire and then
// frozen into a Program; fields must not be mutated afterwards.
type Node struct {
	Kind     Kind
	Label    string  // human-readable, for debugging and DOT output
	FireType string  // for KindFire: the type whose rules define its semantics
	Children []*Node // composition operands (empty for strands)

	// Strand attributes.
	Work   int64         // number of unit-cost instructions
	Run    func()        // optional real computation, used by the exec runtime
	Reads  footprint.Set // words read by the strand
	Writes footprint.Set // words written by the strand

	// Assigned by NewProgram.
	ID     int   // preorder index in the program's tree
	Parent *Node // nil for the root
	Index  int   // 1-based index within Parent.Children

	footprint footprint.Set // union of subtree strand footprints (a slice of the program's interval slab)
	frozenBy  *Program      // the NewProgram call that last visited the node: its per-freeze "seen" stamp
	leafLo    int           // first leaf sequence number in subtree
	leafHi    int           // one past the last leaf sequence number
	depth     int           // root = 0
}

// NewStrand creates a leaf node. The footprint sets may be nil for strands
// that model pure computation.
func NewStrand(label string, work int64, reads, writes footprint.Set, run func()) *Node {
	return &Node{Kind: KindStrand, Label: label, Work: work, Reads: reads, Writes: writes, Run: run}
}

// NewSeq composes children serially (left to right). It requires at least
// one child; a single child is returned unwrapped.
func NewSeq(children ...*Node) *Node {
	if len(children) == 1 {
		return children[0]
	}
	return &Node{Kind: KindSeq, Label: ";", Children: children}
}

// NewPar composes children in parallel. It requires at least one child;
// a single child is returned unwrapped.
func NewPar(children ...*Node) *Node {
	if len(children) == 1 {
		return children[0]
	}
	return &Node{Kind: KindPar, Label: "‖", Children: children}
}

// NewFire composes src and dst with the fire construct of the given type:
// dst partially depends on src as specified by the type's rules.
func NewFire(fireType string, src, dst *Node) *Node {
	return &Node{Kind: KindFire, Label: fireType + "~>", FireType: fireType, Children: []*Node{src, dst}}
}

// Descend follows the pedigree from n, stopping early if a strand is
// reached (the remaining pedigree then refers inside the strand's serial
// code, and the dependency conservatively attaches to the whole strand).
// It returns an error if a component indexes a missing child of an
// internal node, which indicates a rule/tree shape mismatch, or if the
// pedigree contains a Wildcard (use DescendAll for those).
//
//ndlint:noalloc
func (n *Node) Descend(p Pedigree) (*Node, error) {
	cur := n
	for _, idx := range p {
		if cur.Kind == KindStrand {
			return cur, nil
		}
		if idx < 1 || idx > len(cur.Children) {
			return nil, descendError(p, idx, cur)
		}
		cur = cur.Children[idx-1]
	}
	return cur, nil
}

func descendError(p Pedigree, idx int, at *Node) error {
	if idx == Wildcard {
		return fmt.Errorf("pedigree %s contains a wildcard; use DescendAll", p)
	}
	return fmt.Errorf("pedigree %s does not exist under %s node %q (has %d children)",
		p, at.Kind, at.Label, len(at.Children))
}

// DescendAll follows the pedigree like Descend, expanding each Wildcard
// component to every child of the current node, and appends all reached
// nodes to dst (caller-owned scratch; the DRS passes its stack). Reached
// nodes are distinct without a seen-set: the frontier starts as {n} and
// each step replaces a node by itself (a strand) or by children of its
// own, so it stays an antichain of a tree.
func (n *Node) DescendAll(p Pedigree, dst []*Node) ([]*Node, error) {
	start := len(dst)
	dst = append(dst, n)
	for _, idx := range p {
		end := len(dst)
		for _, c := range dst[start:end] {
			switch {
			case c.Kind == KindStrand:
				dst = append(dst, c)
			case idx == Wildcard:
				dst = append(dst, c.Children...)
			case idx < 1 || idx > len(c.Children):
				return nil, descendError(p, idx, c)
			default:
				dst = append(dst, c.Children[idx-1])
			}
		}
		dst = append(dst[:start], dst[end:]...) // the next frontier slides down over the current one
	}
	return dst, nil
}

// IsLeaf reports whether the node is a strand.
func (n *Node) IsLeaf() bool { return n.Kind == KindStrand }

// Footprint returns the union of all strand footprints in the subtree.
// Valid after the node has been frozen into a Program.
func (n *Node) Footprint() footprint.Set { return n.footprint }

// Size returns s(n): the number of distinct words accessed by the task, as
// used for space-bounded scheduling. Valid after NewProgram.
func (n *Node) Size() int64 { return n.footprint.Words() }

// Depth returns the node's depth in the spawn tree (root = 0).
// Valid after NewProgram.
func (n *Node) Depth() int { return n.depth }

// LeafRange returns the half-open range of leaf sequence numbers contained
// in the subtree. Valid after NewProgram.
func (n *Node) LeafRange() (lo, hi int) { return n.leafLo, n.leafHi }

// Contains reports whether m is in the subtree rooted at n (including n).
// Valid after NewProgram. Leaf ranges of distinct nodes in a frozen tree are
// either disjoint or strictly nested (every internal node has ≥ 2 children),
// so the range comparison is exact and runs in O(1).
func (n *Node) Contains(m *Node) bool {
	return n.leafLo <= m.leafLo && m.leafHi <= n.leafHi && n.depth <= m.depth
}

// Program is a frozen spawn tree together with the rule set giving its fire
// constructs semantics. NewProgram assigns IDs, parents, sizes and leaf
// ranges, and validates the tree against the rules.
type Program struct {
	Root   *Node
	Rules  RuleSet
	Nodes  []*Node // indexed by Node.ID (preorder)
	Leaves []*Node // strands in serial-elision (left-to-right) order
}

// NewProgram freezes a spawn tree. It validates that:
//
//   - the rule set itself is valid (see RuleSet.Validate);
//   - every fire type used in the tree is defined in the rule set;
//   - internal nodes have ≥ 2 children and fire nodes exactly 2;
//   - the tree is a tree (no shared subtrees).
func NewProgram(root *Node, rules RuleSet) (*Program, error) {
	if root == nil {
		return nil, fmt.Errorf("nil spawn tree")
	}
	if rules == nil {
		rules = RuleSet{}
	}
	if err := rules.Validate(); err != nil {
		return nil, fmt.Errorf("invalid rule set: %w", err)
	}
	f := freezer{p: &Program{Root: root, Rules: rules}}
	if err := f.freeze(root, nil, 0, 0); err != nil {
		return nil, err
	}
	return f.p, nil
}

// freezer is the scratch of one NewProgram call. Nothing in it outlives
// the call except the slab chunks the nodes' footprints point into.
type freezer struct {
	p *Program
	// slab is the open chunk of the program's interval slab: subtree
	// footprints are merged straight into its tail, one slice per node
	// but one allocation per chunk.
	slab []footprint.Interval
	// sets is a stack of operand footprints: a node pushes its children's
	// (a strand its Reads and Writes) and union pops them.
	sets []footprint.Set
}

func (f *freezer) freeze(n, parent *Node, index, depth int) error {
	p := f.p
	if n.frozenBy == p {
		return fmt.Errorf("node %q appears twice in the spawn tree", n.Label)
	}
	n.frozenBy = p
	n.ID = len(p.Nodes)
	n.Parent = parent
	n.Index = index
	n.depth = depth
	p.Nodes = append(p.Nodes, n)
	n.leafLo = len(p.Leaves)
	from := len(f.sets)
	switch n.Kind {
	case KindStrand:
		if len(n.Children) != 0 {
			return fmt.Errorf("strand %q has children", n.Label)
		}
		if n.Work < 0 {
			return fmt.Errorf("strand %q has negative work", n.Label)
		}
		p.Leaves = append(p.Leaves, n)
		f.sets = append(f.sets, n.Reads, n.Writes)
	case KindFire:
		if len(n.Children) != 2 {
			return fmt.Errorf("fire node %q must have exactly 2 children, has %d", n.Label, len(n.Children))
		}
		if _, ok := p.Rules[n.FireType]; !ok {
			return fmt.Errorf("fire node %q uses undefined fire type %q", n.Label, n.FireType)
		}
	case KindSeq, KindPar:
		if len(n.Children) < 2 {
			return fmt.Errorf("%s node %q must have at least 2 children, has %d", n.Kind, n.Label, len(n.Children))
		}
	default:
		return fmt.Errorf("node %q has invalid kind %v", n.Label, n.Kind)
	}
	for i, c := range n.Children {
		if c == nil {
			return fmt.Errorf("%s node %q has nil child %d", n.Kind, n.Label, i+1)
		}
		if err := f.freeze(c, n, i+1, depth+1); err != nil {
			return err
		}
		f.sets = append(f.sets, c.footprint)
	}
	n.leafHi = len(p.Leaves)
	n.footprint = f.union(from)
	return nil
}

// union pops the operand sets pushed since from and returns their union,
// merged into the slab. A chunk that cannot hold the operands' total
// length (the union's upper bound) is left to the nodes already pointing
// into it and a larger one is opened.
func (f *freezer) union(from int) footprint.Set {
	total := 0
	for _, s := range f.sets[from:] {
		total += len(s)
	}
	if cap(f.slab)-len(f.slab) < total {
		f.slab = make([]footprint.Interval, 0, max(total, 2*cap(f.slab), 512))
	}
	start := len(f.slab)
	f.slab = footprint.AppendUnion(f.slab, f.sets[from:])
	f.sets = f.sets[:from]
	if start == len(f.slab) {
		return nil
	}
	return f.slab[start:len(f.slab):len(f.slab)]
}

// Work returns T1: the total work of the program.
func (p *Program) Work() int64 {
	var w int64
	for _, l := range p.Leaves {
		w += l.Work
	}
	return w
}
