package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// Span is one timed region of the pipeline: a whole analysis, one stage
// (autopriv, chronopriv), or one ROSA query. Spans carry string labels
// ({program, phase, attack, verdict, …}) and a parent link, forming the
// root → stage → query hierarchy the JSONL export preserves.
type Span struct {
	reg *Registry
	log *slog.Logger // emits begin/end debug records; nil = silent

	mu     sync.Mutex
	id     int64
	parent int64 // 0 = root
	name   string
	labels map[string]string
	start  time.Time
	dur    time.Duration // 0 until End
	ended  bool
}

// StartSpan opens a span under parent (nil for a root span) with the given
// label pairs ("key1", "val1", "key2", "val2", …). Only a NewCapture
// registry retains the span for export. Returns nil on a nil registry; all
// Span methods are nil-safe.
func (r *Registry) StartSpan(name string, parent *Span, kv ...string) *Span {
	if r == nil {
		return nil
	}
	s := &Span{
		reg:    r,
		id:     r.spanSeq.Add(1),
		name:   name,
		labels: labelMap(kv),
		start:  time.Now(),
	}
	if parent != nil {
		s.parent = parent.id
	}
	if r.keepSpans {
		r.spanMu.Lock()
		r.spans = append(r.spans, s)
		r.spanMu.Unlock()
	}
	return s
}

func labelMap(kv []string) map[string]string {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// SetLabel adds or replaces one label (e.g. the verdict, known only at
// finish). No-op on nil.
func (s *Span) SetLabel(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.labels == nil {
		s.labels = make(map[string]string, 1)
	}
	s.labels[key] = value
}

// End finishes the span, fixing its duration, and — when the span was
// started from a context carrying a logger — emits a "span end" debug
// record. Subsequent Ends are no-ops, as is End on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	first := !s.ended
	if first {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	name, dur, lg := s.name, s.dur, s.log
	s.mu.Unlock()
	if first && lg != nil {
		lg.Debug("span end", "span", name, "dur", dur)
	}
}

// Duration returns the span's fixed duration, or the running duration if the
// span has not ended (0 on nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// spanRecord is the JSONL wire form of one span.
type spanRecord struct {
	Type    string            `json:"type"`
	ID      int64             `json:"id"`
	Parent  int64             `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	StartNS int64             `json:"start_ns"`
	DurNS   int64             `json:"dur_ns"`
	Running bool              `json:"running,omitempty"`
}

func (s *Span) record() spanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := spanRecord{
		Type:    "span",
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNS: s.start.UnixNano(),
		DurNS:   s.dur.Nanoseconds(),
		Running: !s.ended,
	}
	if len(s.labels) > 0 {
		rec.Labels = make(map[string]string, len(s.labels))
		for k, v := range s.labels {
			rec.Labels[k] = v
		}
	}
	if !s.ended {
		rec.DurNS = time.Since(s.start).Nanoseconds()
	}
	return rec
}

// Spans returns the registry's retained spans in start order: every span of
// a NewCapture registry, none of a New one (nil on a nil registry).
func (r *Registry) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]*Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// histRecord is the JSONL wire form of one histogram's summary.
type histRecord struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P95   int64 `json:"p95"`
	P99   int64 `json:"p99"`
}

// metricsRecord is the final JSONL line: a dump of every metric.
type metricsRecord struct {
	Type       string                `json:"type"`
	Counters   map[string]int64      `json:"counters,omitempty"`
	Gauges     map[string]int64      `json:"gauges,omitempty"`
	Histograms map[string]histRecord `json:"histograms,omitempty"`
}

// WriteJSONL writes the full telemetry capture as JSON Lines: one "span"
// record per span in start order, then one final "metrics" record dumping
// every counter, gauge, and histogram summary. No-op on a nil registry.
func (r *Registry) WriteJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s.record()); err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
	}
	snap := r.snapshot()
	rec := metricsRecord{Type: "metrics"}
	if len(snap.counters) > 0 {
		rec.Counters = snap.counters
	}
	if len(snap.gauges) > 0 {
		rec.Gauges = snap.gauges
	}
	if len(snap.hists) > 0 {
		rec.Histograms = make(map[string]histRecord, len(snap.hists))
		for name, h := range snap.hists {
			rec.Histograms[name] = histRecord{
				Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
		}
	}
	if err := enc.Encode(rec); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	return nil
}
