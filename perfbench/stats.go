package main

import (
	"math"
	"runtime"
	"time"

	"colocmodel/internal/stats"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Latencies (µs) are counted in log-spaced buckets, histPerOctave per
// doubling from histLowUS up to about 268 s, so a histogram's memory is
// fixed however many operations a run completes: a faster server never
// reads as a bigger benchmark. A bucket is 0.54% wide; quantiles
// interpolate within it. The first histExact values are also kept, and
// quantiles of up to that many values are exact: with a dozen pipeline
// passes, interpolating within buckets put the median on a bucket edge,
// the same value in unrelated runs.
const (
	histPerOctave = 128
	histOctaves   = 32
	histLowUS     = 1.0 / 16
	histExact     = 256
)

type latencyHist struct {
	counts   [histPerOctave * histOctaves]uint32
	n        uint64
	min, max float64
	exact    []float64
}

func (h *latencyHist) record(v float64) {
	if len(h.exact) < histExact {
		h.exact = append(h.exact, v)
	}
	i := 0
	if v > histLowUS {
		i = min(int(math.Log2(v/histLowUS)*histPerOctave), len(h.counts)-1)
	}
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	if o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.exact = append(h.exact, o.exact[:min(len(o.exact), histExact-len(h.exact))]...)
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.n == 0 || o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
}

// quantile returns the q-quantile: exact while every value is kept,
// otherwise interpolated linearly within its bucket and clamped to the
// recorded extremes; 0 when nothing was recorded.
func (h *latencyHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if h.n == uint64(len(h.exact)) {
		return stats.Quantile(h.exact, q)
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := histEdge(i), histEdge(i+1)
			v := lo + (rank-cum)/float64(c)*(hi-lo)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum = next
	}
	return h.max
}

// histEdge is the lower edge of bucket i (bucket 0 also holds
// everything below histLowUS).
func histEdge(i int) float64 { return histLowUS * math.Exp2(float64(i)/histPerOctave) }

// kindStats accumulates one operation kind's work counts and the
// latencies of its successful operations.
type kindStats struct {
	attempted, failed int64
	lat               *latencyHist // nil until the first success
}

func (k *kindStats) record(v float64) {
	if k.lat == nil {
		k.lat = &latencyHist{}
	}
	k.lat.record(v)
}

func (k *kindStats) merge(o *kindStats) {
	k.attempted += o.attempted
	k.failed += o.failed
	if o.lat != nil {
		if k.lat == nil {
			k.lat = &latencyHist{}
		}
		k.lat.merge(o.lat)
	}
}

func (k *kindStats) quantile(q float64) float64 {
	if k.lat == nil {
		return 0
	}
	return k.lat.quantile(q)
}

// opKinds are the operation kinds a workload may report, in report
// order.
var opKinds = []string{"pass", "predict", "batch", "observe", "placement"}

// segmentStats is one timed stretch of a closed loop: per-kind work and
// latency, the wall time, and the process allocation deltas.
type segmentStats struct {
	kinds   map[string]*kindStats
	elapsed time.Duration
	// windows split a closed-loop segment into equal stretches of time
	// (none for pipeline passes).
	windows []*segmentStats
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func newSegmentStats() *segmentStats {
	s := &segmentStats{kinds: map[string]*kindStats{}}
	for _, k := range opKinds {
		s.kinds[k] = &kindStats{}
	}
	return s
}

func (s *segmentStats) totals() (attempted, failed, succeeded int64) {
	for _, k := range s.kinds {
		attempted += k.attempted
		failed += k.failed
	}
	return attempted, failed, attempted - failed
}

// all merges every kind into one, for the quantiles of the whole mix.
func (s *segmentStats) all() *kindStats {
	out := &kindStats{}
	for _, k := range opKinds {
		out.merge(s.kinds[k])
	}
	return out
}

// memMark snapshots the allocator counters that bracket a segment.
type memMark struct {
	mallocs, bytes uint64
	gcs            uint32
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.Mallocs, ms.TotalAlloc, ms.NumGC}
}

func (s *segmentStats) setMem(from, to memMark) {
	s.mallocs = to.mallocs - from.mallocs
	s.bytes = to.bytes - from.bytes
	s.gcs = to.gcs - from.gcs
}

// putEndToEnd fills the end-to-end latency and throughput metrics from
// an untraced segment: medians over its windows when it has them.
func putEndToEnd(out *outcome, s *segmentStats) {
	wins := s.windows
	if len(wins) == 0 {
		wins = []*segmentStats{s}
	}
	var thr, p50, p95 []float64
	for _, w := range wins {
		all := w.all()
		_, _, ok := w.totals()
		thr = append(thr, float64(ok)/w.elapsed.Seconds())
		p50 = append(p50, all.quantile(0.5))
		p95 = append(p95, all.quantile(0.95))
	}
	out.values["throughput_ops_s"] = stats.Median(thr)
	out.values["latency_p50_us"] = stats.Median(p50)
	out.values["latency_p95_us"] = stats.Median(p95)
}

// putWorkCounts fills the per-kind work counts, the per-kind latency
// metrics and the process allocation metrics from the untraced half of a
// traced run; layer metrics come from the traced half.
func putWorkCounts(out *outcome, untraced, traced *segmentStats) {
	for _, k := range opKinds {
		a := untraced.kinds[k].attempted + traced.kinds[k].attempted
		f := untraced.kinds[k].failed + traced.kinds[k].failed
		out.values["ops."+k+".attempted"] = float64(a)
		out.values["ops."+k+".failed"] = float64(f)
		out.values["ops."+k+".succeeded"] = float64(a - f)
	}
	out.values["pipeline_s"] = untraced.kinds["pass"].quantile(0.5) / 1e6
	out.values["predict_p50_us"] = untraced.kinds["predict"].quantile(0.5)
	out.values["predict_p95_us"] = untraced.kinds["predict"].quantile(0.95)
	out.values["batch_p50_us"] = untraced.kinds["batch"].quantile(0.5)
	out.values["observe_p50_us"] = untraced.kinds["observe"].quantile(0.5)
	out.values["observe_p95_us"] = untraced.kinds["observe"].quantile(0.95)
	out.values["placement_p50_us"] = untraced.kinds["placement"].quantile(0.5)
	_, _, ok := untraced.totals()
	if ok > 0 {
		out.values["process.allocs_per_op"] = float64(untraced.mallocs) / float64(ok)
		out.values["process.bytes_per_op"] = float64(untraced.bytes) / float64(ok)
	}
	out.values["process.gc_cycles"] = float64(untraced.gcs)
	up := untraced.all().quantile(0.5)
	tp := traced.all().quantile(0.5)
	if up > 0 {
		out.values["trace.overhead_pct"] = 100 * (tp/up - 1)
	}
	ua, uf, _ := untraced.totals()
	ta, tf, _ := traced.totals()
	out.attempted, out.failed = ua+ta, uf+tf
}

// zeroLayers sets every per-layer metric to zero so that layers a
// workload never reaches report 0 rather than going missing.
func zeroLayers(out *outcome) {
	for _, d := range metricsFor(true) {
		out.values[d.name] = 0
	}
}
