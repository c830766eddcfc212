package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layer is the module a span's call entered. The harness itself is a
// layer, so its own restore/verify work and loop overhead show up
// instead of being smeared over the others.
type layer uint8

const (
	lHarness layer = iota
	lCore
	lAlgos
	lExec
	lDyn
	numLayers
)

var layerNames = [numLayers]string{"harness", "core", "algos", "exec", "dyn"}

// span is one timed call from the harness into a layer's public
// function (or one cycle, the root). Times are nanoseconds since the
// recorder's epoch; parent is an index into the same slice, -1 for a
// root; cycle numbers the roots.
type span struct {
	name       string
	layer      layer
	untimed    bool // harness work outside the timed part of the cycle
	parent     int32
	cycle      int32
	start, end int64
	bodyNS     int64 // roots only: strand-body CPU time during the cycle
}

// rec records spans on the submitter goroutine, in memory, and is
// written out when the run ends. A nil *rec is the untraced mode: every
// method is a no-op behind one nil check, so traced and untraced windows
// run the same workload code.
type rec struct {
	epoch time.Time
	spans []span
	open  int32
	cycle int32
}

func newRec() *rec {
	return &rec{epoch: time.Now(), spans: make([]span, 0, 1<<16), open: -1}
}

func (r *rec) begin(l layer, name string) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{
		name: name, layer: l, parent: r.open, cycle: r.cycle,
		start: int64(time.Since(r.epoch)),
	})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

// beginUntimed opens a span for harness work that the cycle time
// excludes (restoring destroyed inputs, verifying outputs).
func (r *rec) beginUntimed(name string) int32 {
	i := r.begin(lHarness, name)
	if i >= 0 {
		r.spans[i].untimed = true
	}
	return i
}

func (r *rec) end(i int32) {
	if r == nil {
		return
	}
	s := &r.spans[i]
	s.end = int64(time.Since(r.epoch))
	r.open = s.parent
}

// beginRoot opens a root span: one cycle of a window, or one dissected
// set-up. Roots are numbered; every span carries its root's number.
func (r *rec) beginRoot(name string) int32 {
	if r == nil {
		return -1
	}
	r.cycle++
	return r.begin(lHarness, name)
}

// endRoot closes a cycle's root, noting the strand-body time the
// workers spent during it.
func (r *rec) endRoot(i int32, bodyNS int64) {
	if r == nil {
		return
	}
	r.spans[i].bodyNS = bodyNS
	r.end(i)
}

// selfTimes returns, per layer, the summed self time of its spans (a
// span minus the part its children cover) over the timed part of the
// traced cycles, and that timed total. Strand bodies run on the workers
// while the submitter sits in an exec span, so bodyNS/workers of each
// cycle is moved from exec to algos: an engine span of wall time d with
// W workers is W·d of worker time, of which the bodies are algos' and
// the rest — scheduling plus idle — is exec's.
func (r *rec) selfTimes(workers int) (self [numLayers]float64, timed float64) {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := float64(s.end - s.start)
		if s.untimed {
			continue // its children, if any, are untimed too
		}
		if s.parent < 0 {
			timed += d
			body := float64(s.bodyNS) / float64(workers)
			self[lAlgos] += body
			self[lExec] -= body
		}
		self[s.layer] += d - float64(child[i])
	}
	for _, s := range r.spans {
		if s.untimed {
			// An untimed span was subtracted from its parent above as a
			// child; take it out of the timed total as well.
			timed -= float64(s.end - s.start)
		}
	}
	if self[lExec] < 0 {
		self[lExec] = 0
	}
	return self, timed
}

// durations returns the sorted durations, in nanoseconds, of every span
// with the given layer and name.
func (r *rec) durations(l layer, name string) []float64 {
	var d []float64
	for _, s := range r.spans {
		if s.layer == l && s.name == name {
			d = append(d, float64(s.end-s.start))
		}
	}
	sort.Float64s(d)
	return d
}

// perCycle returns, sorted, each cycle's summed duration of the spans
// with the given layer and name.
func (r *rec) perCycle(l layer, name string) []float64 {
	sum := map[int32]float64{}
	for _, s := range r.spans {
		if s.layer == l && s.name == name {
			sum[s.cycle] += float64(s.end - s.start)
		}
	}
	d := make([]float64, 0, len(sum))
	for _, v := range sum {
		d = append(d, v)
	}
	sort.Float64s(d)
	return d
}

// traceFile is the on-disk form of a traced run; see README.md, "Reading
// a trace file". Setup holds the dissected set-ups, Spans the traced
// cycles; ids and parents are indices within their own list.
type traceFile struct {
	Workload string      `json:"workload"`
	Workers  int         `json:"workers"`
	Seed     int64       `json:"seed"`
	Dropped  int         `json:"spans_dropped"`
	Setup    []traceSpan `json:"setup_spans"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1: a root (one cycle, one set-up)
	Cycle   int    `json:"cycle"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Untimed bool   `json:"untimed,omitempty"`
	BodyNS  int64  `json:"body_ns,omitempty"`
}

// maxFileSpans bounds each list of the trace file (serve-mix records a
// few hundred thousand spans a run); the aggregates use every span.
const maxFileSpans = 50000

// export converts the first maxFileSpans spans, cut at a root boundary
// so every span's parent is present.
func (r *rec) export() (out []traceSpan, dropped int) {
	n := len(r.spans)
	if n > maxFileSpans {
		n = maxFileSpans
		for n > 0 && r.spans[n].parent >= 0 {
			n--
		}
	}
	out = make([]traceSpan, n)
	for i, s := range r.spans[:n] {
		out[i] = traceSpan{
			ID: i, Parent: int(s.parent), Cycle: int(s.cycle),
			Layer: layerNames[s.layer], Name: s.name,
			StartNS: s.start, EndNS: s.end, Untimed: s.untimed, BodyNS: s.bodyNS,
		}
	}
	return out, len(r.spans) - n
}

// writeTrace writes the run's spans, kept in memory until now, to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, workers int, seed int64, setup, cycles *rec) (string, error) {
	tf := traceFile{Workload: workload, Workers: workers, Seed: seed}
	var d1, d2 int
	tf.Setup, d1 = setup.export()
	tf.Spans, d2 = cycles.export()
	tf.Dropped = d1 + d2
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(&tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
