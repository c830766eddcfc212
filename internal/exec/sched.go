package exec

// The scheduler seam. Which structure holds a ready compiled strand
// between the completion that enabled it and the worker that runs it is
// the one thing the four policies disagree on, and readyQueue is the one
// place that knows it: NewEngine picks an implementer once, and submit,
// the worker loop and acquire go through the interface without ever
// asking which policy they serve. Everything else — the injector, the
// deques as the carrier of dynamic task words, the parking ladder, the
// failure model, tracing, fault injection — is shared, which is why every
// option composes with every policy.
//
// The contract every implementer keeps: a sweep that returns false has
// observed every structure the policy publishes into (its own and every
// other worker's deque included) empty at some point during the call.
// acquire's Dekker announce-then-recheck leans on exactly that — a
// publication the first sweep raced past is seen by the recheck, or its
// publisher saw the sleeper count and wakes the pool.
type readyQueue interface {
	// seed publishes a new run's initially-ready strands and binds the
	// per-instance state the policy steers by. Called by submit under the
	// engine mutex, before the run is counted active.
	seed(inst *Instance, slot int32)
	// publish fans out the strands one completion enabled: it returns the
	// task word the worker chains into next (-1 when ready is empty),
	// makes the rest stealable, and wakes sleepers for them. id is the
	// strand that just completed.
	publish(w *Worker, inst *Instance, slot, id int32, ready []int32) int64
	// local pops the worker's own secondary structure once its deque is
	// dry — before the injector, without the engine mutex.
	local(self int) (int64, bool)
	// sweep takes from anywhere else: the idle path behind the injector,
	// and the recheck before parking. Exhaustive, see above.
	sweep(w *Worker) (int64, bool)
}

// newReadyQueue builds the ready structure for the engine's policy.
func newReadyQueue(e *Engine) readyQueue {
	fifo := fifoSched{e}
	switch e.policy {
	case PolicyCriticalPath:
		return &depthSched{fifo}
	case PolicyRelaxed:
		return &relaxedSched{fifo, newMultiQueue(e.workers)}
	case PolicyLocality:
		// Adopt the topology: its policy counters re-home onto the
		// engine's registry (one source of truth) and anchor trace
		// events ride the engine's tracer.
		e.topo.met, e.topo.eng = e.met, e
		return &localSched{fifo, e.topo, make([][]int64, e.workers)}
	default:
		return &fifo
	}
}

// wakeFor wakes up to n sleepers for n freshly pushed tasks; with no
// sleeper it costs one atomic load.
func (e *Engine) wakeFor(n int) {
	if n > 0 && e.nSleep.Load() > 0 {
		e.wake(n)
	}
}

// fifoSched is PolicyFIFO, deque-FIFO: submission order on the injector,
// fan-out in wake-graph row order onto the worker's own Chase–Lev deque
// (LIFO owner pops, FIFO steals). The other three embed it for the parts
// of the discipline they keep.
type fifoSched struct{ e *Engine }

func (s *fifoSched) seed(inst *Instance, slot int32) {
	for _, id := range inst.ct.InitialReady() {
		s.e.inject = append(s.e.inject, packTask(slot, id))
	}
}

// publish keeps the last-enabled strand (its wake counter is still
// cache-hot) as the next local task; the rest go on the deque for
// thieves.
//
//ndlint:hotpath
func (s *fifoSched) publish(w *Worker, _ *Instance, slot, _ int32, ready []int32) int64 {
	n := len(ready)
	if n == 0 {
		return -1
	}
	d := s.e.deques[w.self]
	for _, rid := range ready[:n-1] {
		d.push(packTask(slot, rid))
	}
	s.e.wakeFor(n - 1)
	return packTask(slot, ready[n-1])
}

//ndlint:hotpath
func (s *fifoSched) local(int) (int64, bool) { return 0, false }

//ndlint:hotpath
func (s *fifoSched) sweep(w *Worker) (int64, bool) {
	t, victim, ok := stealFrom(s.e.deques, w.self, &w.rng)
	if ok {
		s.e.noteSteal(w.self, t, victim)
	}
	return t, ok
}

// depthSched is PolicyCriticalPath, deque-by-depth: the same deques,
// ordered deepest-first by compile-time depth-to-sink. The policy costs
// one small sort per fan-out and nothing on the steal path.
type depthSched struct{ fifoSched }

// seed enters the deepest strands into the injector first, so the long
// chains are the first ones idle workers pick up.
func (s *depthSched) seed(inst *Instance, slot int32) {
	if inst.prio == nil {
		inst.prio = inst.eg.StrandDepths()
	}
	for _, id := range inst.eg.PrioInitialReady() {
		s.e.inject = append(s.e.inject, packTask(slot, id))
	}
}

// publish sorts the ready list by descending depth-to-sink, chains the
// deepest strand, and pushes the surplus deepest-first — thieves take
// from the top (oldest), so the deepest surplus strand is the first one
// stolen, while the owner unwinds its own shallow end last.
//
//ndlint:hotpath
func (s *depthSched) publish(w *Worker, inst *Instance, slot, id int32, ready []int32) int64 {
	// An all-tied fan-out carries no priority signal (symmetric wakes —
	// the common case in uniform recurrences like FW), so it takes the
	// FIFO fan-out unchanged.
	prio := inst.prio
	tied := true
	for _, rid := range ready {
		if prio[rid] != prio[ready[0]] {
			tied = false
			break
		}
	}
	if tied {
		return s.fifoSched.publish(w, inst, slot, id, ready)
	}
	sortByDepth(ready, prio)
	d := s.e.deques[w.self]
	for _, rid := range ready[1:] {
		d.push(packTask(slot, rid))
	}
	s.e.wakeFor(len(ready) - 1)
	return packTask(slot, ready[0])
}

// sortByDepth sorts ready by descending prio, stably, by insertion —
// fan-outs are a handful of strands, so this beats sort.Slice's
// interface overhead on the hot path.
func sortByDepth(ready []int32, prio []int64) {
	for i := 1; i < len(ready); i++ {
		id := ready[i]
		d := prio[id]
		j := i - 1
		for j >= 0 && prio[ready[j]] < d {
			ready[j+1] = ready[j]
			j--
		}
		ready[j+1] = id
	}
}

// relaxedSched is PolicyRelaxed: compiled strands live in the MultiQueue
// (relaxed.go) keyed by depth-to-sink. The deques still carry dynamic
// task words, so the FIFO steal sweep stays behind the MultiQueue's.
type relaxedSched struct {
	fifoSched
	mq *multiQueue
}

// seed spreads the run's first wave round-robin over every queue, so it
// starts contention-free.
func (s *relaxedSched) seed(inst *Instance, slot int32) {
	if inst.prio == nil {
		inst.prio = inst.eg.StrandDepths()
	}
	for _, id := range inst.ct.InitialReady() {
		s.mq.pushAny(inst.prio[id], packTask(slot, id))
	}
}

// publish chains the deepest enabled strand; the surplus lands in the
// worker's own queue pair (the less loaded of the two).
//
//ndlint:hotpath
func (s *relaxedSched) publish(w *Worker, inst *Instance, slot, _ int32, ready []int32) int64 {
	n := len(ready)
	if n == 0 {
		return -1
	}
	prio := inst.prio
	best := 0
	for i := 1; i < n; i++ {
		if prio[ready[i]] > prio[ready[best]] {
			best = i
		}
	}
	next := ready[best]
	ready[best] = ready[n-1]
	for _, rid := range ready[:n-1] {
		s.mq.pushLocal(w.self, prio[rid], packTask(slot, rid))
	}
	s.e.wakeFor(n - 1)
	return packTask(slot, next)
}

//ndlint:hotpath
func (s *relaxedSched) local(self int) (int64, bool) { return s.mq.popOwn(self) }

// sweep meters pops from outside the worker's own pair as cross-pops:
// the MultiQueue is a shared structure with no owner, so they are cheap
// uncontended-lock pops rather than Chase–Lev protocol steals, and the
// two kinds of cross-worker traffic stay comparable across policies.
//
//ndlint:hotpath
func (s *relaxedSched) sweep(w *Worker) (int64, bool) {
	if t, from, ok := s.mq.sweep(w.self, &w.rng); ok {
		if from/2 != w.self {
			s.e.met.crossPops.Inc(w.self)
			s.e.traceSteal(w.self, t, -1)
		}
		return t, true
	}
	return s.fifoSched.sweep(w)
}
