// Package telemetry is the pipeline's observability layer: a dependency-free
// metrics registry (atomic counters, gauges, timers, log-scale histograms)
// plus a span tracer (start/finish with labels and parent links). Every stage
// of the PrivAnalyzer pipeline — AutoPriv, the interpreter run behind
// ChronoPriv, and each ROSA query — reports into a Registry carried on the
// context; exposition is Prometheus text format (WriteProm) and JSONL
// (WriteJSONL: one line per span, one final metrics dump).
//
// The package is built for a near-zero disabled cost: every method is
// nil-receiver-safe, so code paths instrument unconditionally —
//
//	telemetry.FromContext(ctx).Counter("rosa_queries_total").Add(1)
//
// costs two nil checks when no registry is attached. Hot loops (the
// interpreter's dispatch loop, the search engine's per-successor path)
// never consult the registry at all; they aggregate locally and report at
// stage boundaries.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a process's metrics and spans. The zero value is not usable;
// create one with New. A nil *Registry is a valid no-op sink: every method on
// it (and on the nil metrics it hands out) does nothing.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	spanMu    sync.Mutex
	spans     []*Span
	spanSeq   atomic.Int64
	keepSpans bool // NewCapture: retain every span for export

	// proc is the registry's runtime/metrics sampler (process.go); one per
	// registry so repeated SampleProcess calls ingest histogram deltas
	// exactly once.
	procMu sync.Mutex
	proc   *processSampler
}

// New returns an empty registry. Its spans time and log their regions but
// are not retained, so a long-lived process (the analysis server) can open
// spans for every request without its memory growing; Spans, WriteJSONL and
// WriteTrace see none of them.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// NewCapture returns an empty registry that also keeps every span it starts,
// for a run that exports them (WriteJSONL, WriteTrace) when it ends.
func NewCapture() *Registry {
	r := New()
	r.keepSpans = true
	return r
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Timer returns the named timer — a histogram observing durations in
// nanoseconds. The underlying histogram is registered under the same name.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	return &Timer{h: r.Histogram(name)}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value. No-op on nil.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n. No-op on nil.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is one bucket per power of two of the observed value:
// bucket 0 holds 0, bucket b (b ≥ 1) holds [2^(b-1), 2^b). 65 buckets cover
// the full non-negative int64 range.
const histBuckets = 65

// Histogram is a lock-free log-scale histogram of non-negative int64
// observations (durations in ns, state counts, …). It records count, sum,
// min, max exactly and distributes observations over power-of-two buckets,
// from which quantiles are estimated by linear interpolation within the
// containing bucket.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value. Negative values are clamped to 0 (the histogram
// models magnitudes: durations, counts). No-op on nil.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of value v in one shot — the bulk form
// ingesting pre-bucketed external distributions (runtime/metrics histogram
// deltas land a whole bucket's count at its representative value). n ≤ 0 and
// nil receivers are no-ops.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(n)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Min returns the smallest observation (0 when empty or nil).
func (h *Histogram) Min() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest observation (0 when empty or nil).
func (h *Histogram) Max() int64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1). The estimate is exact to
// the containing power-of-two bucket and linearly interpolated within it; it
// is always within [Min, Max]. Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		c := h.buckets[b].Load()
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketBounds(b)
			if lo < h.min.Load() {
				lo = h.min.Load()
			}
			if hi > h.max.Load() {
				hi = h.max.Load()
			}
			if hi <= lo {
				return lo
			}
			// Interpolate by the target's position within the bucket.
			frac := float64(rank-seen) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += c
	}
	return h.max.Load()
}

// bucketBounds returns the value range [lo, hi] covered by bucket b.
func bucketBounds(b int) (lo, hi int64) {
	if b == 0 {
		return 0, 0
	}
	if b >= 63 { // bucket 64 is unreachable for non-negative int64 input
		return int64(1) << 62, math.MaxInt64
	}
	return int64(1) << (b - 1), int64(1)<<b - 1
}

// Timer observes durations into a nanosecond histogram.
type Timer struct{ h *Histogram }

// Observe records one duration. No-op on nil.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(d.Nanoseconds())
}

// Start begins timing; the returned func stops the clock and records the
// elapsed duration. Safe to call on a nil timer (returns a no-op).
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	began := time.Now()
	return func() { t.h.Observe(time.Since(began).Nanoseconds()) }
}

// snapshot is an immutable copy of the registry's metric maps, used by the
// exposition writers so rendering never holds the registry lock while
// writing.
type snapshot struct {
	counters map[string]int64
	gauges   map[string]int64
	hists    map[string]*Histogram
}

func (r *Registry) snapshot() snapshot {
	s := snapshot{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.hists[name] = h
	}
	return s
}

// HistogramSummary is one histogram's exported summary: the same figures the
// Prometheus encoder renders, in a marshal-ready struct.
type HistogramSummary struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// MetricsSnapshot is a point-in-time copy of the registry in marshal-ready
// form: counters and gauges by name, histograms as quantile summaries. It is
// built on the same snapshot path the Prometheus text encoder renders from,
// so GET /metrics and GET /v1/metrics.json always agree (modulo the instant
// of the scrape).
type MetricsSnapshot struct {
	Counters   map[string]int64            `json:"counters"`
	Gauges     map[string]int64            `json:"gauges"`
	Histograms map[string]HistogramSummary `json:"histograms"`
}

// Snapshot materializes the registry's current metrics. Safe on nil (empty
// maps).
func (r *Registry) Snapshot() MetricsSnapshot {
	s := r.snapshot()
	out := MetricsSnapshot{
		Counters:   s.counters,
		Gauges:     s.gauges,
		Histograms: make(map[string]HistogramSummary, len(s.hists)),
	}
	for name, h := range s.hists {
		out.Histograms[name] = HistogramSummary{
			Count: h.Count(),
			Sum:   h.Sum(),
			Min:   h.Min(),
			Max:   h.Max(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
	}
	return out
}

// sortedKeys returns m's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
