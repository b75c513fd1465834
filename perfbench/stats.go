package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; 0 for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perCall times fn in batches of n calls and returns the median batch's
// seconds per call.
func perCall(batches, n int, fn func()) float64 {
	ts := make([]float64, batches)
	for b := range ts {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		ts[b] = time.Since(t0).Seconds() / float64(n)
	}
	return median(ts)
}

func readMetric(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// retainedHeap collects garbage and returns the heap left in bytes.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	return readMetric("/memory/classes/heap/objects:bytes")
}

// heapSampler reads, every 10 ms, the live heap marked by the collector's
// latest cycle, and keeps the highest reading of each window; the caller
// closes a window at each pass or segment boundary. Peak heap is the
// median of the window peaks. Reading the live heap, rather than the
// allocated heap, keeps the figure independent of when the collector
// happened to run; the reads themselves trigger nothing.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	cur   float64
	peaks []float64
}

func liveHeap() float64 { return readMetric("/gc/heap/live:bytes") }

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
				v := liveHeap()
				h.mu.Lock()
				h.cur = max(h.cur, v)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

// window closes the current window.
func (h *heapSampler) window() {
	v := liveHeap()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peaks = append(h.peaks, max(h.cur, v))
	h.cur = 0
}

// stop ends sampling and returns the median window peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.peaks)
}

const mb = 1 << 20

// forEach runs fn(0..n-1) on at most workers goroutines and returns the
// first error by index. It stops handing out work once ctx is done.
func forEach(ctx context.Context, n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n || ctx.Err() != nil {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
