package core

import (
	"fmt"
	"io"
)

// WriteSpawnTreeDOT writes the spawn tree in Graphviz DOT format: internal
// composition nodes as boxes, strands as ellipses, and the graph's dataflow
// arrows as dashed red edges (matching the paper's Figure 6 style).
// The graph may be nil, in which case only the tree is emitted.
func WriteSpawnTreeDOT(w io.Writer, p *Program, g *Graph) error {
	if _, err := fmt.Fprintln(w, "digraph spawntree {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=TB;")
	for _, n := range p.Nodes {
		shape, label := "box", n.Label
		if n.IsLeaf() {
			shape = "ellipse"
			label = fmt.Sprintf("%s\\nW=%d s=%d", n.Label, n.Work, n.Size())
		}
		fmt.Fprintf(w, "  n%d [shape=%s,label=%q];\n", n.ID, shape, label)
	}
	for _, n := range p.Nodes {
		for _, c := range n.Children {
			fmt.Fprintf(w, "  n%d -> n%d [color=gray];\n", n.ID, c.ID)
		}
	}
	if g != nil {
		for _, a := range g.SortedArrows() {
			fmt.Fprintf(w, "  n%d -> n%d [color=red,style=dashed,constraint=false];\n", a.From.ID, a.To.ID)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteWakeGraphDOT renders the collapsed strand-level wake graph: one
// ellipse per strand gate (labelled with the strand and its per-run need,
// doubled borders for initially-ready strands) and one box per relay
// counter the collapse kept (the high fan-in × fan-out joins), with every
// weighted wake edge labelled by its decrement weight. This is the
// structure the trackers actually run — counters and atomic decrements,
// nothing else — so the collapse is inspectable rather than only asserted
// by tests.
func WriteWakeGraphDOT(w io.Writer, g *Graph) error {
	wg := g.Exec().Wake()
	if _, err := fmt.Fprintln(w, "digraph wakegraph {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintf(w, "  label=\"wake graph: %d strand gates + %d relays, %d weighted edges (event cascade: %d decrements)\";\n",
		wg.NumStrands(), wg.NumRelays(), wg.NumWakeEdges(), wg.EventDecrements())
	initial := make(map[int32]bool, len(wg.InitialReady()))
	for _, s := range wg.InitialReady() {
		initial[s] = true
	}
	for s := 0; s < wg.NumStrands(); s++ {
		peripheries := 1
		if initial[int32(s)] {
			peripheries = 2
		}
		label := fmt.Sprintf("%s\\nneed=%d", g.P.Leaves[s].Label, wg.Need(int32(s)))
		fmt.Fprintf(w, "  c%d [shape=ellipse,peripheries=%d,label=%q];\n",
			s, peripheries, label)
	}
	for r := 0; r < wg.NumRelays(); r++ {
		t := int32(wg.NumStrands() + r)
		fmt.Fprintf(w, "  c%d [shape=box,label=%q];\n", t, fmt.Sprintf("relay %d\\nneed=%d", r, wg.Need(t)))
	}
	for i := 0; i < wg.NumCounters(); i++ {
		targets, weights := wg.Row(int32(i))
		for k, t := range targets {
			attr := ""
			if weights[k] != 1 {
				attr = fmt.Sprintf(" [label=\"%d\"]", weights[k])
			}
			fmt.Fprintf(w, "  c%d -> c%d%s;\n", i, t, attr)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WritePriorityDOT renders the strand-level wake graph shaded by the
// scheduler's priority table: each strand gate filled on a grayscale
// ramp by its depth-to-sink (darker = deeper = closer to the critical
// path) and labelled with the depth value. The deepest
// initially-ready strand carries the whole span, so the darkest
// doubled-border node is where the critical path starts.
func WritePriorityDOT(w io.Writer, g *Graph) error {
	eg := g.Exec()
	wg := eg.Wake()
	depths := eg.StrandDepths()
	var max int64 = 1
	for _, d := range depths {
		if d > max {
			max = d
		}
	}
	if _, err := fmt.Fprintln(w, "digraph priority {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintf(w, "  label=\"priority table: depth-to-sink per strand, span=%d (darker = deeper = scheduled first)\";\n", max)
	initial := make(map[int32]bool, len(wg.InitialReady()))
	for _, s := range wg.InitialReady() {
		initial[s] = true
	}
	for s := 0; s < wg.NumStrands(); s++ {
		peripheries := 1
		if initial[int32(s)] {
			peripheries = 2
		}
		// Grayscale ramp from white (depth 0) to near-black (depth ==
		// span); flip the font when the fill gets dark.
		shade := 95 - int(75*depths[s]/max)
		font := "black"
		if shade < 55 {
			font = "white"
		}
		label := fmt.Sprintf("%s\\nd=%d", g.P.Leaves[s].Label, depths[s])
		fmt.Fprintf(w, "  c%d [shape=ellipse,style=filled,peripheries=%d,fillcolor=\"gray%d\",fontcolor=%s,label=%q];\n",
			s, peripheries, shade, font, label)
	}
	for r := 0; r < wg.NumRelays(); r++ {
		t := int32(wg.NumStrands() + r)
		fmt.Fprintf(w, "  c%d [shape=box,label=%q];\n", t, fmt.Sprintf("relay %d", r))
	}
	for i := 0; i < wg.NumCounters(); i++ {
		targets, _ := wg.Row(int32(i))
		for _, t := range targets {
			fmt.Fprintf(w, "  c%d -> c%d;\n", i, t)
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// WriteLeafDAGDOT writes the leaf-level algorithm DAG: one vertex per
// strand, and an edge u → v whenever an arrow orders (an ancestor of) u
// before (an ancestor of) v directly. Transitive structure induced by
// nesting is preserved because arrows attach to tasks.
func WriteLeafDAGDOT(w io.Writer, g *Graph) error {
	if _, err := fmt.Fprintln(w, "digraph algdag {"); err != nil {
		return err
	}
	for i, l := range g.P.Leaves {
		fmt.Fprintf(w, "  l%d [label=%q];\n", i, l.Label)
	}
	for _, a := range g.SortedArrows() {
		fromLo, fromHi := a.From.LeafRange()
		toLo, toHi := a.To.LeafRange()
		// Draw the arrow between the last leaf of the source task and the
		// first leaf of the sink task, annotated with the task extents.
		style := ""
		if fromHi-fromLo > 1 || toHi-toLo > 1 {
			style = " [style=bold]"
		}
		fmt.Fprintf(w, "  l%d -> l%d%s;\n", fromHi-1, toLo, style)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
