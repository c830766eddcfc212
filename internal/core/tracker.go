package core

import "fmt"

// Tracker tracks execution progress over a program's algorithm DAG. It
// runs on the strand-level wake graph (see WakeGraph): each strand has a
// ready gate counting outstanding dependencies, completing a strand
// decrements the counters on its wake list, and relay counters collapse
// wide joins. Gates that reach zero make their strand ready.
//
// Ready strands are tracked by strand ID (serial-elision index); the
// *Node-based accessors remain for convenience. Tracker is not safe for
// concurrent use; parallel runtimes use ConcurrentTracker instead.
type Tracker struct {
	wg        *WakeGraph
	cnt       []int32 // per counter: remaining decrement weight this run
	completed []bool  // per strand
	executed  int
	ready     []int32 // strand IDs enabled since the last TakeReady*
}

// NewTracker returns a tracker with all initially-enabled strands ready.
func NewTracker(g *Graph) *Tracker { return NewExecTracker(g.Exec()) }

// NewExecTracker returns a tracker over a compiled event graph.
func NewExecTracker(eg *ExecGraph) *Tracker { return newWakeTracker(eg.Wake()) }

// newWakeTracker returns a tracker over an explicit wake graph (tests
// drive the uncontracted fallback form through it).
func newWakeTracker(w *WakeGraph) *Tracker {
	t := &Tracker{
		wg:        w,
		cnt:       append([]int32(nil), w.need...),
		completed: make([]bool, w.numStrands),
	}
	t.ready = append(t.ready, w.initial...)
	return t
}

// fire delivers row's wake list: gates reaching zero park their strand as
// ready, relay counters reaching zero fire their own row recursively.
func (t *Tracker) fire(row int32) {
	w := t.wg
	for k := w.wakeOff[row]; k < w.wakeOff[row+1]; k++ {
		c := w.targets[k]
		t.cnt[c] -= w.weights[k]
		if t.cnt[c] != 0 {
			continue
		}
		if int(c) < w.numStrands {
			t.ready = append(t.ready, c)
		} else {
			t.fire(c)
		}
	}
}

// TakeReady returns the strands that became ready since the last call and
// clears the internal list.
func (t *Tracker) TakeReady() []*Node {
	if len(t.ready) == 0 {
		t.ready = t.ready[:0]
		return nil
	}
	r := make([]*Node, len(t.ready))
	for i, id := range t.ready {
		r[i] = t.wg.eg.Strand(id)
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
	id := t.wg.eg.StrandID(leaf)
	return !t.completed[id] && t.cnt[id] == 0
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
	id := t.wg.eg.StrandID(leaf)
	t.completed[id] = true
	t.fire(id)
	t.executed++
	return nil
}

// CompleteID is Complete for a strand identified by ID.
func (t *Tracker) CompleteID(id int32) error { return t.Complete(t.wg.eg.Strand(id)) }

// Done reports whether every strand has been executed.
func (t *Tracker) Done() bool { return t.executed == t.wg.numStrands }

// Executed returns the number of strands completed so far.
func (t *Tracker) Executed() int { return t.executed }
