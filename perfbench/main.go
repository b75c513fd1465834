// Command perfbench is the repository's benchmark. It drives the MEDEA
// reproduction only through its public entry points and runs one of three
// workloads per invocation:
//
//	kernel-dse   the paper's design-space exploration (PE, TIE/eMPI, caches, MPMMU)
//	noc-fabric   the bare network: synthetic, service and trace replay
//	serve-mixed  an in-process medea-serve under closed- and open-loop load
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it times
// the calls into each layer with spans and prints the per-layer metrics.
// Either way it checks every output and prints, as the last line of
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md for the workloads, the metric definitions and the map from
// each per-layer metric to the end-to-end metric it should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a smoke-test size (the benchmark's
	// own tests, and the companion passes of a traced run).
	tiny bool
	// workdir receives scratch files, span dumps and run records.
	workdir string
	// pins are the pinned Merkle roots and exact counts (see pins.go).
	pins pinSet
	// poison injects that many failing jobs into serve-mixed, so tests can
	// check that a failed job is counted.
	poison int
	// log receives progress and failure lines.
	log io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's checks, metrics and exact counts.
type run struct {
	opt       options
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]metric
	// counts are exact simulated statistics; a pure speed change must
	// leave every one of them identical.
	counts map[string]int64
	// root is the Merkle root of the workload's deterministic results.
	root string
	// samples keeps the raw timings behind the medians (pass seconds,
	// window rates) for the run record.
	samples map[string][]float64
}

func newRun(opt options) *run {
	return &run{opt: opt, metrics: map[string]metric{}, counts: map[string]int64{}, samples: map[string][]float64{}}
}

// check counts one attempted operation, failed unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail counts a failure of an operation already counted as attempted.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// absorb folds a companion run's checks into r and copies the named
// metrics.
func (r *run) absorb(c *run, names []string) {
	r.attempted += c.attempted
	r.failed += c.failed
	for _, p := range c.problems {
		r.problems = append(r.problems, "companion "+c.opt.workload+": "+p)
	}
	for _, n := range names {
		if m, ok := c.metrics[n]; ok {
			r.metrics[n] = m
		}
	}
}

// workload is one benchmark workload.
type workload struct {
	name string
	// run executes the workload at r.opt's size: untraced it sets the
	// end-to-end metrics, traced the per-layer metrics this workload owns
	// plus the common ones (probes, overhead, self time).
	run func(ctx context.Context, r *run) error
	// owned lists the per-layer metrics only this workload's layers
	// produce; other workloads' traced runs take them from a tiny
	// companion pass of this one.
	owned []string
}

var workloads = []*workload{kernelDSE, nocFabric, serveMixed}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// execute runs one invocation and returns its report. It never panics on
// a failing workload: errors become failed operations.
func execute(ctx context.Context, opt options) (report, *run) {
	r := newRun(opt)
	w := findWorkload(opt.workload)
	if err := w.run(ctx, r); err != nil {
		r.check(false, "%s: %v", w.name, err)
	}
	if opt.trace {
		for _, other := range workloads {
			if other == w {
				continue
			}
			copt := opt
			copt.workload, copt.tiny, copt.trace, copt.poison = other.name, true, true, 0
			copt.seconds = 1
			c := newRun(copt)
			if err := other.run(ctx, c); err != nil {
				c.check(false, "%s: %v", other.name, err)
			}
			r.absorb(c, other.owned)
		}
		frac := 0.0
		if r.attempted > 0 {
			frac = float64(r.failed) / float64(r.attempted)
		}
		r.set("failed_frac", frac, "ratio")
	}
	if r.attempted == 0 {
		r.check(false, "no operation was attempted")
	}
	for _, p := range r.problems {
		fmt.Fprintln(opt.log, "perfbench: FAIL:", p)
	}
	return report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, r
}

// runRecord is written next to the spans after every invocation.
type runRecord struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"nproc"`
	Host       string               `json:"host"`
	Commit     string               `json:"commit"`
	Started    string               `json:"started"`
	Root       string               `json:"merkle_root"`
	Counts     map[string]int64     `json:"counts"`
	Samples    map[string][]float64 `json:"samples"`
	Report     report               `json:"report"`
	Problems   []string             `json:"problems,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (not built from a git checkout)"
}

func writeRecord(opt options, r *run, rep report, started time.Time) error {
	host, _ := os.Hostname()
	rec := runRecord{
		Workload: opt.workload, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Host: host, Commit: commit(), Started: started.UTC().Format(time.RFC3339),
		Root: r.root, Counts: r.counts, Samples: r.samples, Report: rep, Problems: r.problems,
	}
	dir := filepath.Join(opt.workdir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", opt.workload, opt.seed, b2i(opt.trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		opt      options
		traceInt int
		pinsOut  string
	)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed (>= 0)")
	fs.Float64Var(&opt.seconds, "seconds", 45, "measured seconds per run")
	fs.IntVar(&traceInt, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&opt.workdir, "workdir", ".bench_build", "directory for scratch files, spans and run records")
	fs.StringVar(&pinsOut, "write-pins", "", "compute the pinned roots and counts and write them to this file, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if pinsOut != "" {
		if err := writePins(ctx, pinsOut, opt.workdir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if findWorkload(opt.workload) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have: %s)\n", opt.workload, strings.Join(names, ", "))
		return 2
	}
	if opt.seed < 0 || opt.seconds <= 0 || (traceInt != 0 && traceInt != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seed >= 0, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	opt.trace = traceInt == 1
	opt.log = stderr
	pins, err := embeddedPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt.pins = pins
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	started := time.Now()
	rep, r := execute(ctx, opt)
	if err := writeRecord(opt, r, rep, started); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing the run record:", err)
	}
	printSummary(stderr, r)
	if errors.Is(ctx.Err(), context.Canceled) {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printSummary writes the metrics, exact counts and root to stderr.
func printSummary(w io.Writer, r *run) {
	fmt.Fprintf(w, "perfbench: %s seed %d trace %v: go %s, GOMAXPROCS %d, nproc %d, commit %s\n",
		r.opt.workload, r.opt.seed, r.opt.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit())
	for _, k := range sortedKeys(r.metrics) {
		m := r.metrics[k]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.counts) {
		fmt.Fprintf(w, "  count %-28s %14d\n", k, r.counts[k])
	}
	fmt.Fprintf(w, "  merkle root %s\n", r.root)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
