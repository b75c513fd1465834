package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/resultcache"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// serve-mixed runs an in-process medea-serve (mem result cache, two
// workers) behind httptest in two phases: a closed loop with nproc clients
// to measure capacity, then an open-loop Poisson stream at a fixed rate.
// About 90% of jobs resubmit a seeded pool of scenarios pre-warmed at
// set-up, fetched in rotating formats; about 10% are fresh-seed NoC points
// that miss the cache and hold a worker.
var serveMixed = &workload{
	name: "serve-mixed",
	run:  runServeMixed,
	owned: []string{
		"serve.submit_ms.p50", "serve.submit_ms.p99", "serve.result_ms.p50",
		"serve.rejected_frac", "serve.heap_kb_per_job", "loadgen.lag_p99_ms", "resultcache.hit_rate",
	},
}

const (
	// pollInterval separates result polls, far below the job p50.
	pollInterval = 100 * time.Microsecond
	// jobTimeout fails a job that has not finished by then.
	jobTimeout = 30 * time.Second
	// p99LimitMS is the open-loop latency limit the workload is sized to
	// meet; the run states whether it did.
	p99LimitMS = 50.0
	// closedShare is the share of the measured seconds spent closed-loop.
	closedShare = 0.4
	// freshEvery: every freshEvery-th job is a fresh-seed cache miss.
	freshEvery = 10
)

type serveSize struct {
	poolNoC      int     // NoC sweeps in the pool (plus one kernel sweep)
	poolMeasure  int64   // their measurement window
	freshMeasure int64   // a fresh point's measurement window
	rate         float64 // open-loop jobs per second
	kernelCores  []int
}

func serveSizeOf(tiny bool) serveSize {
	if tiny {
		return serveSize{poolNoC: 2, poolMeasure: 200, freshMeasure: 200, rate: 100, kernelCores: []int{2}}
	}
	return serveSize{poolNoC: 7, poolMeasure: 1000, freshMeasure: 800, rate: 500, kernelCores: []int{2, 4}}
}

var formats = []string{scenario.FormatTable, scenario.FormatCSV, scenario.FormatJSON}

// poolEntry is one pre-warmed scenario and its expected renders.
type poolEntry struct {
	raw     []byte
	points  int
	results []scenario.Result
	want    map[string]string // format -> scenario.Render output
}

// pool builds the seeded scenario pool and renders each scenario locally,
// through the scenario runner with the cache off.
func buildPool(ctx context.Context, seed int64, sz serveSize) ([]poolEntry, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7e))
	patterns := []string{"uniform", "transpose", "hotspot"}
	rates := []float64{0.02, 0.05, 0.1, 0.2}
	routers := []string{"deflection", "xy", "adaptive", "wormhole"}
	var raws [][]byte
	for i := 0; i < sz.poolNoC; i++ {
		p := rng.Perm(len(patterns))
		q := rng.Perm(len(rates))
		raws = append(raws, mustJSON(map[string]any{
			"name": fmt.Sprintf("pool-noc-%d", i), "workload": "noc-synthetic",
			"noc": map[string]any{
				"width": nocW, "height": nocH, "routers": []string{routers[rng.IntN(len(routers))]},
				"patterns": []string{patterns[p[0]], patterns[p[1]]}, "rates": []float64{rates[q[0]], rates[q[1]]},
				"measure_cycles": sz.poolMeasure,
			},
			"seeds": []int64{1 + rng.Int64N(1<<30)}, "parallelism": 1,
		}))
	}
	raws = append(raws, mustJSON(map[string]any{
		"name": "pool-kernel", "workload": "syncbench",
		"kernel": map[string]any{
			"variants": []string{"hybrid-full", "pure-sm"}, "cores": sz.kernelCores, "cache_kb": []int{8},
		},
		"parallelism": 1,
	}))
	pool := make([]poolEntry, len(raws))
	for i, raw := range raws {
		s, err := scenario.Parse(raw)
		if err != nil {
			return nil, err
		}
		res, err := scenario.RunCtx(ctx, s)
		if err != nil {
			return nil, err
		}
		pool[i] = poolEntry{raw: raw, points: s.NumPoints(), results: res, want: map[string]string{}}
		for _, f := range formats {
			if pool[i].want[f], err = scenario.Render(res, f); err != nil {
				return nil, err
			}
		}
	}
	return pool, nil
}

// jobSpec is one submission.
type jobSpec struct {
	body   []byte
	format string
	// want is the expected result; empty for a fresh job, whose expected
	// result is computed after the measured phases.
	want   string
	fresh  bool
	poison bool
	points int
	cycles int64 // simulated cycles a fresh job computes
}

// jobAt derives job i of the seeded job stream. Every freshEvery-th job
// misses the cache, so every stretch of jobs holds the same share of
// misses.
func jobAt(seed int64, i uint64, pool []poolEntry, sz serveSize) jobSpec {
	rng := rand.New(rand.NewPCG(uint64(seed), i))
	format := formats[i%uint64(len(formats))]
	if (i+uint64(seed))%freshEvery == 0 {
		return jobSpec{
			body: mustJSON(map[string]any{
				"name": "fresh", "workload": "noc-synthetic",
				"noc": map[string]any{
					"width": nocW, "height": nocH, "patterns": []string{"uniform"}, "rates": []float64{0.1},
					"measure_cycles": sz.freshMeasure,
				},
				// Seeds never used by the pool, one per job.
				"seeds": []int64{int64(1<<40) + seed<<24 + int64(i)}, "parallelism": 1,
			}),
			format: format, fresh: true, points: 1, cycles: sz.freshMeasure,
		}
	}
	p := pool[rng.IntN(len(pool))]
	return jobSpec{body: p.raw, format: format, want: p.want[format], points: p.points}
}

// poisonJob is a scenario that fails while running (the jacobi grid does
// not fit the memory layout), for the benchmark's own tests.
var poisonJob = jobSpec{
	body:   []byte(`{"name":"poison","workload":"jacobi","kernel":{"n":400,"cores":[2],"cache_kb":[2]}}`),
	format: scenario.FormatCSV, poison: true, points: 1,
}

// daemon is one in-process medea-serve behind httptest.
type daemon struct {
	srv *serve.Server
	hs  *httptest.Server
}

func startDaemon(rc *resultcache.Cache) *daemon {
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 64, Cache: rc})
	return &daemon{srv: srv, hs: httptest.NewServer(srv.Handler())}
}

func (d *daemon) stop() {
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Shutdown(ctx)
}

// outcome is one job's result as the client saw it.
type outcome struct {
	spec     jobSpec
	got      string
	err      error
	rejected bool
	submit   time.Duration
	fetch    time.Duration // the successful result GET
	done     time.Time
}

// client submits jobs and polls their results.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	n := workers()
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do submits one job and polls until its result is fetched or it fails.
func (c *client) do(ctx context.Context, j jobSpec, rec *recorder) outcome {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	root := rec.start("serve.job", 0)
	defer rec.end(root)
	o := outcome{spec: j}
	t0 := time.Now()
	id := rec.start("http.submit", root)
	code, body, err := c.request(ctx, http.MethodPost, c.base+"/v1/jobs", j.body)
	rec.end(id)
	o.submit = time.Since(t0)
	if err != nil {
		o.err = err
		return o
	}
	if code == http.StatusTooManyRequests {
		o.rejected, o.err = true, fmt.Errorf("submission refused (429)")
		return o
	}
	var st serve.JobStatus
	if code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
		o.err = fmt.Errorf("submission: HTTP %d: %s", code, body)
		return o
	}
	url := c.base + "/v1/jobs/" + st.ID + "/result?format=" + j.format
	for {
		t := time.Now()
		id := rec.start("http.poll", root)
		code, body, err := c.request(ctx, http.MethodGet, url, nil)
		rec.end(id)
		if err != nil {
			o.err = err
			return o
		}
		switch code {
		case http.StatusOK:
			o.fetch, o.got, o.done = time.Since(t), string(body), time.Now()
			return o
		case http.StatusConflict:
			if err := json.Unmarshal(body, &st); err != nil || st.State.Terminal() {
				o.err = fmt.Errorf("job %s: %s", st.ID, body)
				return o
			}
		default:
			o.err = fmt.Errorf("result: HTTP %d: %s", code, body)
			return o
		}
		if err := ctx.Err(); err != nil {
			o.err = err
			return o
		}
		sleep(pollInterval)
	}
}

// sleep blocks the calling thread in nanosleep(2). Go's timers round a
// sub-millisecond sleep up to about 1 ms on an idle host, which is near
// the job p50; the load generator and the pollers need better. An early
// wake-up only polls or dispatches sooner.
func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil)
}

func (c *client) request(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// setupServe builds the pool, starts a daemon with a fresh cache and
// pre-warms the cache by running every pool scenario through the daemon.
// The measured phases start daemons of their own on the warm cache.
func setupServe(ctx context.Context, r *run, sz serveSize) (*resultcache.Cache, []poolEntry, error) {
	pool, err := buildPool(ctx, r.opt.seed, sz)
	if err != nil {
		return nil, nil, err
	}
	rc := resultcache.New(resultcache.NewMemoryStore(0))
	d := startDaemon(rc)
	defer d.stop()
	c := newClient(d.hs.URL)
	defer c.close()
	for _, p := range pool {
		o := c.do(ctx, jobSpec{body: p.raw, format: scenario.FormatJSON}, nil)
		if o.err != nil {
			return nil, nil, fmt.Errorf("pre-warming: %w", o.err)
		}
		r.check(o.got == p.want[scenario.FormatJSON], "pre-warm result differs from scenario.Render")
	}
	return rc, pool, nil
}

// tally collects job outcomes and checks them.
type tally struct {
	mu       sync.Mutex
	r        *run
	jobs     int
	points   int
	cycles   int64
	rejected int
	fresh    []outcome
	submit   []float64 // ms
	fetch    []float64 // ms
}

func (t *tally) add(o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.submit = append(t.submit, o.submit.Seconds()*1e3)
	if o.rejected {
		t.rejected++
	}
	if o.err != nil {
		t.r.check(false, "job (poison %v): %v", o.spec.poison, o.err)
		return
	}
	t.jobs++
	t.points += o.spec.points
	t.cycles += o.spec.cycles
	t.fetch = append(t.fetch, o.fetch.Seconds()*1e3)
	if o.spec.fresh {
		t.fresh = append(t.fresh, o)
		return
	}
	t.r.check(o.got == o.spec.want, "served %s result differs from scenario.Render (%d vs %d bytes)", o.spec.format, len(o.got), len(o.spec.want))
}

// closedLoop runs nproc clients back to back against d for dur and returns
// the elapsed time.
func closedLoop(ctx context.Context, d *daemon, t *tally, pool []poolEntry, sz serveSize, next *atomic.Uint64, dur time.Duration, rec *recorder, poison int) time.Duration {
	c := newClient(d.hs.URL)
	defer c.close()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				j := jobAt(t.r.opt.seed, next.Add(1)-1, pool, sz)
				if w == 0 && k < poison {
					j = poisonJob
				}
				t.add(c.do(ctx, j, rec))
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop submits n jobs to d at Poisson arrival times of the given rate
// and returns each job's latency from its due time and how late each was
// dispatched.
func openLoop(ctx context.Context, d *daemon, t *tally, pool []poolEntry, sz serveSize, next *atomic.Uint64, n int, rng *rand.Rand, rec *recorder) (lat, lag []float64) {
	c := newClient(d.hs.URL)
	defer c.close()
	lat, lag = make([]float64, n), make([]float64, n)
	var wg sync.WaitGroup
	due := time.Now()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / sz.rate * float64(time.Second)))
		sleep(time.Until(due))
		lag[i] = time.Since(due).Seconds() * 1e3
		j := jobAt(t.r.opt.seed, next.Add(1)-1, pool, sz)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			o := c.do(ctx, j, rec)
			t.add(o)
			if o.err == nil {
				lat[i] = o.done.Sub(due).Seconds() * 1e3
			} else {
				lat[i] = jobTimeout.Seconds() * 1e3 // a failed job misses any limit
			}
		}(i, due)
	}
	wg.Wait()
	return lat, lag
}

// The measured phases run in segments, each on a daemon of its own that
// shares the warm cache. medea-serve keeps every job in memory, so one
// daemon for the whole phase would make each collector cycle costlier than
// the last and the figures would depend on how far into the phase a job
// ran; a fresh daemon per segment keeps every segment alike.
const closedSegments, openSegments = 8, 5

func runServeMixed(ctx context.Context, r *run) error {
	sz := serveSizeOf(r.opt.tiny)
	var rc *resultcache.Cache
	var pool []poolEntry
	var setup []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if rc, pool, err = setupServe(ctx, r, sz); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	pinPool(r, pool)
	r.checkPins()

	var rec *recorder
	if r.opt.trace {
		rec = newRecorder()
	}
	var next atomic.Uint64

	// Closed loop. A traced run traces every other segment, to compare.
	closed := &tally{r: r}
	segDur := time.Duration(r.opt.seconds * closedShare / closedSegments * float64(time.Second))
	var jobsPS, pointsPS, cyclesPS, untracedRate, tracedRate []float64
	for seg := 0; seg < closedSegments; seg++ {
		segRec := (*recorder)(nil)
		if r.opt.trace && seg%2 == 1 {
			segRec = rec
		}
		d := startDaemon(rc)
		j0, p0, c0 := closed.jobs, closed.points, closed.cycles
		el := closedLoop(ctx, d, closed, pool, sz, &next, segDur, segRec, r.opt.poison*b2i(seg == 0)).Seconds()
		d.stop()
		jobsPS = append(jobsPS, float64(closed.jobs-j0)/el)
		pointsPS = append(pointsPS, float64(closed.points-p0)/el)
		cyclesPS = append(cyclesPS, float64(closed.cycles-c0)/el)
		if segRec != nil {
			tracedRate = append(tracedRate, jobsPS[seg])
		} else {
			untracedRate = append(untracedRate, jobsPS[seg])
		}
	}
	r.samples["closed_jobs_per_s"] = jobsPS
	if err := verifyFresh(ctx, r, closed.fresh); err != nil {
		return err
	}
	// Only the closed loop's totals are used from here on, so its tally is
	// garbage before the open loop measures the heap: the open loop's heap
	// figures do not depend on how many closed-loop jobs ran.
	closedRejected, closedSubmits, closedJobs := closed.rejected, len(closed.submit), closed.jobs

	// Open loop, with one Poisson schedule across the segments.
	open := &tally{r: r}
	rng := rand.New(rand.NewPCG(uint64(r.opt.seed), 0x09e4))
	perSeg := max(1, int(sz.rate*r.opt.seconds*(1-closedShare))/openSegments)
	var lat, lag, p50s, p99s []float64
	var before, retained float64
	heap := startHeapSampler()
	for seg := 0; seg < openSegments; seg++ {
		before = retainedHeap()
		d := startDaemon(rc)
		l, g := openLoop(ctx, d, open, pool, sz, &next, perSeg, rng, rec)
		heap.window()
		lat, lag = append(lat, l...), append(lag, g...)
		p50s, p99s = append(p50s, quantile(l, 0.50)), append(p99s, quantile(l, 0.99))
		// The last daemon is measured alive: its job table is what
		// medea-serve retains.
		retained = retainedHeap()
		d.stop()
	}
	peak := heap.stop()

	if err := verifyFresh(ctx, r, open.fresh); err != nil {
		return err
	}
	// Latency percentiles are medians over the segments, so a host stall
	// in one segment does not move them.
	p50, p99 := median(p50s), median(p99s)
	r.samples["open_p99_ms"] = p99s
	fmt.Fprintf(r.opt.log, "perfbench: serve-mixed open loop: %d jobs at %.0f/s, p50 %.3f ms, p99 %.2f ms (limit %.0f ms, met %v); closed loop %d jobs\n",
		len(lat), sz.rate, p50, p99, p99LimitMS, p99 <= p99LimitMS, closedJobs)

	if !r.opt.trace {
		r.set("setup_s", median(setup), "s")
		r.set("jobs_per_s", median(jobsPS), "jobs/s")
		r.set("points_per_s", median(pointsPS), "points/s")
		r.set("sim_cycles_per_s", median(cyclesPS), "cycles/s")
		r.set("job_p50_ms", p50, "ms")
		r.set("job_p99_ms", p99, "ms")
		r.set("peak_heap_mb", peak/mb, "MB")
		r.set("retained_heap_mb", retained/mb, "MB")
		return nil
	}
	r.set("bench.trace_overhead_frac", median(untracedRate)/median(tracedRate)-1, "ratio")
	r.set("serve.submit_ms.p50", quantile(open.submit, 0.50), "ms")
	r.set("serve.submit_ms.p99", quantile(open.submit, 0.99), "ms")
	r.set("serve.result_ms.p50", quantile(open.fetch, 0.50), "ms")
	submits := closedSubmits + len(open.submit)
	r.set("serve.rejected_frac", float64(closedRejected+open.rejected)/float64(submits), "ratio")
	r.set("serve.heap_kb_per_job", (retained-before)/1024/float64(perSeg), "KB")
	r.set("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms")
	r.set("resultcache.hit_rate", rc.Stats().HitRate(), "ratio")
	if err := probes(ctx, r, pool[0].raw, pool[0].results); err != nil {
		return err
	}
	return finishTrace(r, rec)
}

// verifyFresh checks fresh jobs, which missed the cache, against
// scenario.Render of their scenarios run locally.
func verifyFresh(ctx context.Context, r *run, fresh []outcome) error {
	same := make([]bool, len(fresh))
	if err := forEach(ctx, len(fresh), workers(), func(i int) error {
		s, err := scenario.Parse(fresh[i].spec.body)
		if err != nil {
			return err
		}
		res, err := scenario.RunCtx(ctx, s)
		if err != nil {
			return err
		}
		want, err := scenario.Render(res, fresh[i].spec.format)
		same[i] = fresh[i].got == want
		return err
	}); err != nil {
		return err
	}
	for i, ok := range same {
		r.check(ok, "served fresh %s result differs from scenario.Render", fresh[i].spec.format)
	}
	return nil
}

// pinPool sets serve-mixed's root and counts: the pool's, the part of its
// output that is a pure function of the seed.
func pinPool(r *run, pool []poolEntry) {
	var rows []scenario.Result
	for _, p := range pool {
		rows = append(rows, p.results...)
	}
	r.root = scenario.MerkleRoot(rows)
	r.counts = map[string]int64{"pool.points": int64(len(rows)), "pool.scenarios": int64(len(pool))}
}
