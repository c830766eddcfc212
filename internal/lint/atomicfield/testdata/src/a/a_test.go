package a

import (
	"sync/atomic"
	"testing"
)

// Test files are in scope: a test driving shared counters through plain
// memory is flagged like any other code.
func TestCounter(t *testing.T) {
	var c counter
	atomic.AddInt64(&c.n, 1) // want `atomic.AddInt64 operates on plain memory`
	if !c.okTyped() && c.read() != 1 {
		t.Fatal("lost increment")
	}
}
