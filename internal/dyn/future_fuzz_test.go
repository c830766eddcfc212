package dyn

import (
	"testing"
)

// FuzzFutureWaiters races Put against concurrent Gets, SpawnAfter gatings
// and spawns on a 4-worker engine. The fuzz input is decoded into a small
// random dataflow program over futures — task i depends on up to three
// earlier tasks, chosen per-byte, consumed per-byte either by suspending
// Get or by SpawnAfter gating, with extra fork–join children mixed in —
// and the parallel result of every future must equal a sequential oracle
// of the same recurrence. Any lost wakeup, double wakeup, dropped waiter
// or miscounted suspension surfaces as a wrong or missing value (or a
// deadlocking run, caught by the test timeout).
func FuzzFutureWaiters(f *testing.F) {
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{30, 0xff, 0x7f, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Add([]byte{2, 1})
	f.Add([]byte{47, 9, 9, 9, 1, 2, 250, 130, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%47 + 2 // task count
		data = data[1:]
		byteAt := func(i int) byte { return data[i%len(data)] }

		// Decode each task's dependency list (indices of earlier tasks)
		// and consumption mode, then compute the sequential oracle:
		// oracle[i] = 31·i + Σ oracle[deps[i]].
		deps := make([][]int, n)
		mode := make([]byte, n)
		oracle := make([]int64, n)
		pos := 0
		for i := 0; i < n; i++ {
			mode[i] = byteAt(pos)
			pos++
			if i > 0 {
				k := int(byteAt(pos)) % 4 // up to three dependencies
				pos++
				for d := 0; d < k; d++ {
					deps[i] = append(deps[i], int(byteAt(pos))%i)
					pos++
				}
			}
			oracle[i] = int64(31 * i)
			for _, d := range deps[i] {
				oracle[i] += oracle[d]
			}
		}

		e := cleanEngine(t, 4)
		futs := make([]Future, n)
		err := Run(e, func(c *Context) {
			for i := 0; i < n; i++ {
				i := i
				body := func(c *Context) {
					v := int64(31 * i)
					for _, d := range deps[i] {
						v += futs[d].Get(c).(int64)
					}
					if mode[i]&2 != 0 {
						// Mix fork–join counters into the race: children
						// the implicit sync must drain before the run ends.
						c.Spawn(func(c *Context) {})
					}
					futs[i].Put(c, v)
				}
				if mode[i]&1 != 0 {
					// Gate on the dependencies: Get inside hits the
					// resolved fast path.
					after := make([]*Future, len(deps[i]))
					for j, d := range deps[i] {
						after[j] = &futs[d]
					}
					c.SpawnAfter(body, after...)
				} else {
					// Spawn immediately: Gets on unresolved dependencies
					// suspend for real and race the Puts.
					c.Spawn(body)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			v, ok := futs[i].TryGet()
			if !ok {
				t.Fatalf("future %d unresolved after the run", i)
			}
			if v.(int64) != oracle[i] {
				t.Fatalf("future %d = %d, oracle %d (deps %v, mode %#x)", i, v, oracle[i], deps[i], mode[i])
			}
		}
	})
}
