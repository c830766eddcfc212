// Package a is the atomicfield failing-case spec: every // want line
// uses a sync/atomic package-level function the analyzer must flag, and
// every typed-atomic method call is one it must not.
package a

import "sync/atomic"

type counter struct {
	n    int64
	done atomic.Bool
	cnt  []atomic.Int32
}

func (c *counter) inc() { atomic.AddInt64(&c.n, 1) } // want `atomic.AddInt64 operates on plain memory`

func (c *counter) read() int64 { return atomic.LoadInt64(&c.n) } // want `atomic.LoadInt64`

var gate int32

func openGate() bool { return atomic.CompareAndSwapInt32(&gate, 0, 1) } // want `atomic.CompareAndSwapInt32`

var load = atomic.LoadInt32 // want `atomic.LoadInt32`

func (c *counter) okTyped() bool { return c.done.Load() }

func (c *counter) okElem(i int) bool { return c.cnt[i].Add(-1) == 0 }

var head atomic.Pointer[counter]

func okPointer() *counter { return head.Load() }
