package a_test

import (
	"sync/atomic"
	"testing"
)

// External test packages are in scope too.
func TestGate(t *testing.T) {
	var gate int32
	atomic.StoreInt32(&gate, 1) // want `atomic.StoreInt32`
	var ok atomic.Bool
	ok.Store(true)
}
