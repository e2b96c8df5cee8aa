package main

// Exact-sample latency and throughput accounting. Every sample is kept (no
// buckets), so percentiles are exact and independent of internal/metrics,
// the histogram under test.

import (
	"sort"
	"strconv"
	"time"
)

// maxSlices is how many equal-count slices a worker's request sequence is
// cut into. Throughput and p99 are taken per slice and the median slice is
// reported: one noisy-neighbour stall lands in one slice and cannot move
// the median, which is what lets a 2-core sandbox meet single-digit bounds.
const maxSlices = 20

// slicesFor keeps ≥1000 samples per slice where the run allows it, so a
// slice's p99 has ≥10 samples beyond it; at least two, so that a traced run
// has a slice of each kind.
func slicesFor(requests int) int {
	return min(maxSlices, max(2, requests/1000))
}

// workerStats is one worker's measured phase: its latency samples in
// request order, and a wall-clock mark with the ops completed at each
// slice boundary.
type workerStats struct {
	lat      []int64 // ns, one per timed request, in request order
	marks    []time.Time
	markOps  []int64
	ops      int64 // verified + failed ops attempted in the phase
	failed   int64
	requests int // requests issued (a request is the latency unit)
}

// newWorkerStats sizes a phase of the given request count in which one
// request in latEvery is timed.
func newWorkerStats(requests, latEvery int) *workerStats {
	s := slicesFor(requests)
	return &workerStats{
		lat:      make([]int64, 0, requests/latEvery+1),
		marks:    make([]time.Time, 0, s+1),
		markOps:  make([]int64, 0, s+1),
		requests: requests,
	}
}

// mark records a slice boundary if request i (0-based, about to be issued,
// or i == requests at the end) is one. Boundaries are a function of the
// request count alone, so parent and change cut identical slices.
func (w *workerStats) mark(i int) {
	s := cap(w.marks) - 1
	next := len(w.marks)
	if next <= s && i == next*w.requests/s {
		w.marks = append(w.marks, time.Now())
		w.markOps = append(w.markOps, w.ops)
	}
}

// sliceRates is ops/second of each slice.
func (w *workerStats) sliceRates() []float64 {
	rates := make([]float64, 0, len(w.marks))
	for k := 1; k < len(w.marks); k++ {
		d := w.marks[k].Sub(w.marks[k-1]).Seconds()
		if d > 0 {
			rates = append(rates, float64(w.markOps[k]-w.markOps[k-1])/d)
		}
	}
	return rates
}

// tracedSlice reports whether the slice being run is one a traced run
// records spans in: the odd ones. Traced and untraced slices alternate, so
// both see the same machine and the same stretch of a workload that drifts
// as its tables grow; their rates differ by the tracing overhead alone.
func (w *workerStats) tracedSlice() bool { return len(w.marks)%2 == 0 }

// traceOverhead is 1 - (traced slices' rate / untraced slices' rate), each
// the sum over workers of the median slice rate. It is 0 for a phase too
// short to have both kinds of slice.
func traceOverhead(ws []*workerStats) float64 {
	var plain, traced float64
	for _, w := range ws {
		var even, odd []float64
		for k, r := range w.sliceRates() {
			if k%2 == 0 {
				even = append(even, r)
			} else {
				odd = append(odd, r)
			}
		}
		plain += median(even)
		traced += median(odd)
	}
	if plain == 0 || traced == 0 {
		return 0
	}
	return 1 - traced/plain
}

// medianRate is the median over slices of ops/second.
func (w *workerStats) medianRate() float64 { return median(w.sliceRates()) }

// opsPerSec sums the workers' median slice rates: the steady-state
// throughput of the closed loop.
func opsPerSec(ws []*workerStats) float64 {
	total := 0.0
	for _, w := range ws {
		total += w.medianRate()
	}
	return total
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the nearest-rank q-quantile of sorted ns samples, in µs.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(q*float64(len(sorted))+0.999999) - 1
	k = min(max(k, 0), len(sorted)-1)
	return float64(sorted[k]) / 1e3
}

// latencySummary merges the workers' samples. p50 is over all samples;
// p99 is the median over slices of each slice's p99 (slice k pools every
// worker's k-th slice); worstP99 is the largest slice p99 — the spike the
// median hides, reported per layer as a stall ratio.
func latencySummary(ws []*workerStats) (p50, p99, worstP99 float64, samples int) {
	slices := maxSlices
	for _, w := range ws {
		// ≥1000 samples per slice, so each p99 has ≥10 samples beyond it;
		// a short phase is one slice.
		slices = min(slices, max(1, len(w.lat)/1000))
	}
	return slicedLatency(ws, slices)
}

// slicedLatency is latencySummary with the slice count given.
func slicedLatency(ws []*workerStats, slices int) (p50, p99, worstP99 float64, samples int) {
	var all []int64
	for _, w := range ws {
		all = append(all, w.lat...)
	}
	samples = len(all)
	var p99s []float64
	buf := make([]int64, 0, samples/slices+len(ws))
	for k := 0; k < slices; k++ {
		buf = buf[:0]
		for _, w := range ws {
			n := len(w.lat)
			buf = append(buf, w.lat[k*n/slices:(k+1)*n/slices]...)
		}
		sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
		v := quantile(buf, 0.99)
		p99s = append(p99s, v)
		worstP99 = max(worstP99, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return quantile(all, 0.5), median(p99s), worstP99, samples
}

// logSlices prints each worker's slice rates, so a reader can see a stall
// that the median hid.
func logSlices(c *runCtx, ws []*workerStats) {
	for g, w := range ws {
		var b []byte
		for _, r := range w.sliceRates() {
			b = strconv.AppendFloat(append(b, ' '), r/1e3, 'f', 1, 64)
		}
		c.logf("worker %d slice kops/s:%s", g, b)
	}
}

// repetitions is how many times a run sets up and measures. Throughput on
// this box depends on which physical pages a table lands on — ±10% from one
// build or one child process to the next, steady for the life of each — so
// one placement is one draw. A run therefore repeats set-up + measurement
// on fresh memory and reports the median repetition; --seconds is split
// evenly between them.
const repetitions = 5

// repStats is one repetition's end-to-end metrics.
type repStats struct {
	setupS, opsPerS, p50, p99, cpuUS, memB float64
	samples                                int
}

// measured fills a repetition's timing metrics from its workers.
func (r *repStats) measured(c *runCtx, ws []*workerStats) {
	logSlices(c, ws)
	r.opsPerS = opsPerSec(ws)
	r.p50, r.p99, _, r.samples = latencySummary(ws)
}

// tally adds the workers' op counts to the result.
func (res *result) tally(ws []*workerStats) (ops int64) {
	for _, w := range ws {
		ops += w.ops
		res.Failed += w.failed
	}
	res.Attempted += ops
	return ops
}

// report sets the end-to-end metrics to the median over repetitions.
func (res *result) report(reps []repStats) {
	col := func(f func(repStats) float64) float64 {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = f(r)
		}
		return median(v)
	}
	res.Metrics["setup_s"] = col(func(r repStats) float64 { return r.setupS })
	res.Metrics["ops_per_s"] = col(func(r repStats) float64 { return r.opsPerS })
	res.Metrics["lat_p50_us"] = col(func(r repStats) float64 { return r.p50 })
	res.Metrics["lat_p99_us"] = col(func(r repStats) float64 { return r.p99 })
	res.Metrics["cpu_us_per_op"] = col(func(r repStats) float64 { return r.cpuUS })
	res.Metrics["mem_bytes_per_key"] = col(func(r repStats) float64 { return r.memB })
	for _, r := range reps {
		res.Samples += r.samples
	}
}
