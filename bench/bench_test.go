package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// shortRun runs every workload at -short scale, both passes, and returns
// what was printed, the JSON result and the trace directory.
func shortRun(t *testing.T, seed int64) (string, result, string) {
	t.Helper()
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, workloadNames, config{seed: seed, seconds: 1, short: true, outDir: dir}, passBoth); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, lines[len(lines)-1])
	}
	return out.String(), res, dir
}

// TestBenchmark keeps the benchmark from rotting: all four workloads run
// at -short scale, every metric BENCHMARK.json names is printed exactly
// once per workload with a finite value and the contract's unit, every
// op succeeds, the watchdog never fires, and the trace files parse with
// every span's parent present.
func TestBenchmark(t *testing.T) {
	ct, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(ct.Workloads), len(workloadNames))
	}
	for i, w := range ct.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness's is %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind string
		want []boundedMetric
		have []metric
	}{{"end_to_end", ct.EndToEnd, endToEnd}, {"per_layer", ct.PerLayer, perLayer}} {
		if len(c.want) != len(c.have) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", c.kind, len(c.want), len(c.have))
			continue
		}
		for i, m := range c.want {
			if m.Name != c.have[i].name || m.Unit != c.have[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the harness %s [%s]", c.kind, i, m.Name, m.Unit, c.have[i].name, c.have[i].unit)
			}
		}
	}

	printed, res, dir := shortRun(t, 1)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, printed)
	}
	for _, w := range workloadNames {
		for _, m := range append(append([]boundedMetric(nil), ct.EndToEnd...), ct.PerLayer...) {
			n := 0
			for _, line := range strings.Split(printed, "\n") {
				f := strings.Fields(line)
				if len(f) == 4 && f[0] == w && f[1] == m.Name {
					n++
					if f[3] != m.Unit {
						t.Errorf("%s %s printed with unit %q, want %q", w, m.Name, f[3], m.Unit)
					}
				}
			}
			if n != 1 {
				t.Errorf("%s %s printed %d times, want once", w, m.Name, n)
			}
			v, ok := res.Metrics[w+"/"+m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s %s = %v (present %v), want a finite value", w, m.Name, v.Value, ok)
			}
		}
		if v := res.Metrics[w+"/ok_share"].Value; v != 1 {
			t.Errorf("%s ok_share = %v, want 1", w, v)
		}
		for _, zero := range []string{"exec.rescues", "exec.runs_failed"} {
			if v := res.Metrics[w+"/"+zero].Value; v != 0 {
				t.Errorf("%s %s = %v, want 0", w, zero, v)
			}
		}
		checkTrace(t, filepath.Join(dir, "trace-"+w+".json"), w)
	}
	if v := res.Metrics["serve-mix/dyn.jit_hit_share"].Value; v != 1 {
		t.Errorf("serve-mix dyn.jit_hit_share = %v, want 1", v)
	}
}

// TestSeedsChangeOnlyInputs: -seed drives matrix contents, boundary rows
// and serve-mix's op order, nothing else. What the compile step does to
// every program — vertices, T∞ in strands, strands per cycle, the
// allocations of Rewrite — must come out identical for two seeds, and
// cold-pipeline, whose every allocation happens on the submitter, must
// allocate the same per op to the fourth digit (the remainder is the
// runtime refilling the caches runtime.GC() cleared before the window).
func TestSeedsChangeOnlyInputs(t *testing.T) {
	type shape struct {
		vertices, span, strands int
		allocs, kib             float64
	}
	shapeOf := func(name string, seed int64) shape {
		w, err := newWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(seed); err != nil {
			t.Fatal(err)
		}
		a := newAcct()
		f, err := dissect(w, 2, newRec(), a)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.setup(2, nil, a)
		if err != nil {
			t.Fatal(err)
		}
		defer in.close(nil)
		if a.failed != 0 {
			t.Errorf("%s seed %d: %d of %d ops failed: %v", name, seed, a.failed, a.ops, a.byType)
		}
		return shape{f.vertices, f.spanPerCycle, in.strandsPerCycle(), f.allocs, f.kib}
	}
	for _, name := range workloadNames {
		if a, b := shapeOf(name, 1), shapeOf(name, 2); a != b {
			t.Errorf("%s: seeds 1 and 2 compile to different shapes: %+v vs %+v", name, a, b)
		}
	}

	perOp := func(seed int64) map[string]jsonValue {
		var out bytes.Buffer
		if err := run(&out, []string{"cold-pipeline"}, config{seed: seed, seconds: 1, short: true}, passEndToEnd); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		return res.Metrics
	}
	a, b := perOp(1), perOp(2)
	for _, m := range []string{"allocs_per_op_plus1", "kib_per_op_plus1"} {
		if x, y := a[m].Value, b[m].Value; math.Abs(x-y)/x > 1e-4 {
			t.Errorf("cold-pipeline %s: %v at seed 1, %v at seed 2", m, x, y)
		}
	}
}

func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	if tf.Workload != workload || len(tf.Spans) == 0 || len(tf.Setup) == 0 {
		t.Errorf("%s: workload %q, %d setup spans, %d cycle spans", path, tf.Workload, len(tf.Setup), len(tf.Spans))
	}
	for _, list := range [][]traceSpan{tf.Setup, tf.Spans} {
		for i, s := range list {
			if s.ID != i || s.Parent >= i || s.Parent < -1 || s.EndNS < s.StartNS {
				t.Errorf("%s: span %d %+v: parent must be an earlier span of the same list", path, i, s)
				return
			}
			if s.Parent >= 0 && list[s.Parent].Cycle != s.Cycle {
				t.Errorf("%s: span %d is in cycle %d, its parent in cycle %d", path, i, s.Cycle, list[s.Parent].Cycle)
				return
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
