// Package demo carries deliberate ndlint findings with stable
// positions for cmd/ndlint's CLI tests: an unknown directive (typo
// protection) and a function-style sync/atomic call. The testdata path
// keeps it out of the module's own ./... runs.
package demo

import "sync/atomic"

//ndlint:cachelin
type oops struct{ n int64 }

func (o *oops) inc() { atomic.AddInt64(&o.n, 1) }
