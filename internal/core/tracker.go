package core

import "fmt"

// Tracker is the single-threaded view of a ConcurrentTracker that the
// serial drivers and the simulator run on. Readiness is the concurrent
// tracker's wake cascade (there is one); the view adds what a schedule
// checker needs: every completion is checked for legality (the strand's
// gate is open and it has not run yet), the strands each completion
// enables are collected for TakeReady*, and completions are counted for
// the stall check (Done, Executed).
//
// Ready strands are tracked by strand ID (serial-elision index); the
// *Node-based accessors remain for convenience. Tracker is not safe for
// concurrent use; parallel runtimes use ConcurrentTracker directly.
type Tracker struct {
	ct        *ConcurrentTracker
	completed []bool // per strand
	executed  int
	ready     []int32 // strand IDs enabled since the last TakeReady*
	scratch   []int32 // relay rows fired by the cascade
}

// NewTracker returns a tracker with all initially-enabled strands ready.
func NewTracker(g *Graph) *Tracker { return NewExecTracker(g.Exec()) }

// NewExecTracker returns a tracker over a compiled event graph.
func NewExecTracker(eg *ExecGraph) *Tracker { return newWakeTracker(eg.Wake()) }

// newWakeTracker returns a tracker over an explicit wake graph (tests
// drive the uncontracted fallback form through it).
func newWakeTracker(w *WakeGraph) *Tracker {
	return &Tracker{
		ct:        newConcurrentTracker(w),
		completed: make([]bool, w.numStrands),
		ready:     append([]int32(nil), w.initial...),
	}
}

// TakeReady returns the strands that became ready since the last call and
// clears the internal list.
func (t *Tracker) TakeReady() []*Node {
	if len(t.ready) == 0 {
		return nil
	}
	r := make([]*Node, len(t.ready))
	for i, id := range t.ready {
		r[i] = t.ct.wg.eg.Strand(id)
	}
	t.ready = t.ready[:0]
	return r
}

// TakeReadyIDs appends the strand IDs that became ready since the last
// TakeReady* call to dst, clears the internal list, and returns dst. It
// performs no allocation when dst has capacity.
func (t *Tracker) TakeReadyIDs(dst []int32) []int32 {
	dst = append(dst, t.ready...)
	t.ready = t.ready[:0]
	return dst
}

// IsReady reports whether the strand's ready gate is open (all
// dependencies delivered) but the strand has not been completed yet.
func (t *Tracker) IsReady(leaf *Node) bool {
	id := t.ct.wg.eg.StrandID(leaf)
	return !t.completed[id] && t.ct.fired(id)
}

// Complete marks a ready strand as executed and propagates readiness.
// It returns an error if the strand was not ready (a schedule bug).
func (t *Tracker) Complete(leaf *Node) error {
	if !leaf.IsLeaf() {
		return fmt.Errorf("tracker: %q is not a strand", leaf.Label)
	}
	if !t.IsReady(leaf) {
		return fmt.Errorf("tracker: strand %q (leaf %d) executed before its dependencies", leaf.Label, leaf.ID)
	}
	id := t.ct.wg.eg.StrandID(leaf)
	t.completed[id] = true
	t.ready, t.scratch, _ = t.ct.Complete(id, t.ready, t.scratch)
	t.executed++
	return nil
}

// CompleteID is Complete for a strand identified by ID.
func (t *Tracker) CompleteID(id int32) error { return t.Complete(t.ct.wg.eg.Strand(id)) }

// Done reports whether every strand has been executed.
func (t *Tracker) Done() bool { return t.executed == len(t.completed) }

// Executed returns the number of strands completed so far.
func (t *Tracker) Executed() int { return t.executed }
