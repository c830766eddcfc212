package core

// Exported for the tests in package core_test, which build programs with
// the algorithm builders (they import core, so those tests cannot live in
// package core).
var CheckSinkLatch = checkSinkLatch

// BuildFlatWakeGraph is the uncontracted fallback collapse.
func BuildFlatWakeGraph(eg *ExecGraph) *WakeGraph { return buildWakeGraph(eg, false) }
