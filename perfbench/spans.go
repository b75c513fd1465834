package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for a root); spans of one job or sweep point share a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// valid and records nothing, so untraced runs share the traced code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans)) + 1, Parent: parent, Name: name, Start: now})
	return int64(len(r.spans))
}

// end closes the span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (r *recorder) add(name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: int64(len(r.spans)) + 1, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return int64(len(r.spans))
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover. Children of one parent run one after another in this
// benchmark, so their durations add without overlap.
func (r *recorder) selfTimes() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range r.spans {
		self[s.Name] += s.End - s.Start - child[s.ID]
	}
	return self
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanNames are the layer calls the benchmark wraps in spans; each gets a
// self_frac.<name> per-layer metric (its share of the run's span self
// time, 0 where the workload does not call that layer).
var spanNames = []string{
	"jacobi.RunCtx", "core.Build", "matmul.RunCtx", "syncbench.MeasureWithCtx",
	"noc.MeasureCtx", "noc.MeasureReplayCtx", "noc.MeasureServiceCtx",
	"serve.job", "http.submit", "http.poll",
}

// finishTrace sets the self_frac metrics and writes the spans out.
func finishTrace(r *run, rec *recorder) error {
	self := rec.selfTimes()
	var total int64
	for _, v := range self {
		total += v
	}
	for _, n := range spanNames {
		frac := 0.0
		if total > 0 {
			frac = float64(self[n]) / float64(total)
		}
		r.set("self_frac."+n, frac, "ratio")
	}
	name := r.opt.workload
	if r.opt.tiny {
		name += "-tiny"
	}
	return rec.write(filepath.Join(r.opt.workdir, "spans", name+".jsonl"))
}
