package exec

// The ready structure. A compiled strand waits for a worker in one of two
// places: the injector, in submission order, if it is one of a run's
// initially-ready strands (submit appends them, takeInjectLocked serves
// them), or otherwise the Chase–Lev deque of the worker whose completion
// enabled it (LIFO owner pops, FIFO steals). The deques carry dynamic
// task words too, so compiled and dynamic runs share one structure.
//
// The sweep contract: a sweep that returns false has observed empty, at
// some point during the call, every structure that a worker other than
// the sweeper can publish into without the engine mutex — every other
// worker's deque. (The injector is read under the mutex, and every append
// to it bumps the epoch acquire parks on.) The sweeper's own deque is not
// among them, and the sweep skips it (stealFrom passes over self): its
// owner is the only worker that pushes to it, and the owner is the one in
// acquire, which it reached by popping that deque dry, so nothing can land
// there while it sweeps. acquire's Dekker announce-then-recheck leans on
// exactly that — a publication the first sweep raced past is seen by the
// recheck, or its publisher saw the sleeper count and wakes the pool.
// TestSweepContract checks it.

// wakeFor wakes up to n sleepers for n freshly pushed tasks; with no
// sleeper it costs one atomic load.
func (e *Engine) wakeFor(n int) {
	if n > 0 && e.nSleep.Load() > 0 {
		e.wake(n)
	}
}

// publish fans out the strands one completion enabled, in wake-graph row
// order: it keeps the last-enabled strand (its wake counter is still
// cache-hot) as the worker's next task and returns its word (-1 when
// ready is empty), pushes the rest onto the worker's own deque for
// thieves, and wakes sleepers for them.
func (e *Engine) publish(self int, slot int32, ready []int32) int64 {
	n := len(ready)
	if n == 0 {
		return -1
	}
	d := e.deques[self]
	for _, rid := range ready[:n-1] {
		d.push(packTask(slot, rid))
	}
	e.wakeFor(n - 1)
	return packTask(slot, ready[n-1])
}

// sweep steals for an idle worker from every other worker's deque: the
// idle path behind the injector, and the recheck before parking.
// Exhaustive, see above. acquire's doc-level allowblock ends the ndlint
// walk there, so sweep roots its own.
//
//ndlint:hotpath
func (e *Engine) sweep(w *Worker) (int64, bool) {
	t, victim, ok := stealFrom(e.deques, w.self, &w.rng)
	if ok {
		e.noteSteal(w.self, t, victim)
	}
	return t, ok
}
