// Package clean is a finding-free package for cmd/ndlint's CLI tests:
// a run over it must exit 0 and print nothing.
package clean

import "sync/atomic"

type counter struct{ n atomic.Int64 }

func (c *counter) inc() int64 { return c.n.Add(1) }

//ndlint:noalloc
func double(x int64) int64 { return 2 * x }
