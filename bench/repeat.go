package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// contract is the part of BENCHMARK.json the harness reads back: metric
// names, directions and bounds are defined there and nowhere else.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// quartiles are Python's statistics.quantiles(v, n=4) (the exclusive
// method), which is what the benchmark's driver computes spreads with.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's direction (negative: b is better).
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// repeatRuns is the repeatability check (-repeat N): the end-to-end pass
// of every named workload N times, each in a fresh process and with its
// own seed, assigned alternately to two sets. Per metric it prints the
// two set medians, how much worse the second is than the first and the
// other way round, the spread (interquartile range over median) of the
// first ten runs — the statistic the driver accepts the benchmark on —
// and the bound. It returns non-zero when any end-to-end metric's sets
// differ by more than its bound, or spread exceeds it.
func repeatRuns(out io.Writer, names []string, c config, n int) int {
	ct, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -repeat reads the bounds from BENCHMARK.json in the working directory:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// values[workload][metric] in run order.
	values := map[string]map[string][]float64{}
	start := time.Now()
	for i := 0; i < n; i++ {
		for _, name := range names {
			cmd := exec.Command(self,
				"--workload", name, "--seed", strconv.FormatInt(c.seed+int64(i), 10),
				"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", "0",
				"-v="+strconv.FormatBool(c.verbose))
			cmd.Stderr = os.Stderr
			b, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: %v\n", i, name, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: last line is not the result: %v\n", i, name, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: %d of %d ops failed\n", i, name, res.Failed, res.Attempted)
				return 1
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				values[name][m] = append(values[name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: repeat %d/%d %s done (%.0f s)\n", i+1, n, name, time.Since(start).Seconds())
		}
	}

	fmt.Fprintf(out, "# Repeatability of the end-to-end metrics\n\n")
	fmt.Fprintf(out, "`bench -repeat %d -seconds %g -seed %d` on %s, nproc %d (W = %d), %s/%s, %s.\n\n",
		n, c.seconds, c.seed, runtime.Version(), runtime.NumCPU(), workers(), runtime.GOOS, runtime.GOARCH,
		time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(out, "Every run is a fresh process with its own seed (seed + run index). Runs alternate between set A (even) and set B (odd). ")
	fmt.Fprintf(out, "`A→B` is how much worse B's median is than A's, as a share of A's, `B→A` the reverse; ")
	fmt.Fprintf(out, "`spread` is the interquartile range of the first ten runs over their median (Python's `statistics.quantiles(v, n=4)`); ")
	fmt.Fprintf(out, "a metric passes when both differences stay within its bound and the spread within a third of it.\n")
	bad := 0
	for _, name := range names {
		fmt.Fprintf(out, "\n## %s\n\n", name)
		fmt.Fprintf(out, "| metric | unit | median A | median B | A→B | B→A | quartiles A | quartiles B | spread | bound | |\n")
		fmt.Fprintf(out, "|---|---|---:|---:|---:|---:|---|---|---:|---:|---|\n")
		for _, m := range ct.EndToEnd {
			v := values[name][m.Name]
			var a, b []float64
			for i, x := range v {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(out, "| `%s` | %s | needs at least two runs |\n", m.Name, m.Unit)
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			f1, f2, f3 := quartiles(v[:min(len(v), 10)])
			spread := (f3 - f1) / f2
			ab, ba := worsening(a2, b2, m.Better), worsening(b2, a2, m.Better)
			verdict := "ok"
			if math.Max(ab, ba) > m.Bound || spread > m.Bound/3 {
				verdict = "**FAIL**"
				bad++
			}
			fmt.Fprintf(out, "| `%s` | %s | %.6g | %.6g | %+.2f%% | %+.2f%% | %.5g / %.5g | %.5g / %.5g | %.2f%% | %.1f%% | %s |\n",
				m.Name, m.Unit, a2, b2, 100*ab, 100*ba, a1, a3, b1, b3, 100*spread, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(out, "\n%d runs per workload in %.0f s; %d metric/workload pairs outside their bound.\n", n, time.Since(start).Seconds(), bad)
	if bad > 0 {
		return 1
	}
	return 0
}
