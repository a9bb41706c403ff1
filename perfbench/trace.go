package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share Op; the op's timed call is
// under the root span "op", and the traced run's replay of the same op
// through the layers' public functions is under a second root, "direct".
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Op     int64            `json:"op"`
	Pass   int              `json:"pass"`
	Name   string           `json:"name"`
	Class  string           `json:"class,omitempty"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	tracer *tracer
}

// tracer keeps every ended span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace binds spans to one op. A nil *opTrace is an untraced op: every
// method is a no-op, so op code records spans unconditionally.
type opTrace struct {
	tracer *tracer
	op     int64
	pass   int
	class  string
	// replay, set by a traced op, reruns it through the layers' public
	// functions under a "direct" span; sample is the op's index in the
	// run's samples.
	replay func(ctx context.Context) error
	sample int
}

func (o *opTrace) start(parent *span, name string) *span {
	if o == nil {
		return nil
	}
	s := &span{Op: o.op, Pass: o.pass, Name: name, Class: o.class, tracer: o.tracer}
	if parent != nil {
		s.Parent = parent.ID
	}
	o.tracer.mu.Lock()
	o.tracer.next++
	s.ID = o.tracer.next
	o.tracer.mu.Unlock()
	s.Start = int64(time.Since(o.tracer.t0))
	return s
}

// add accumulates a count (states, instructions, bytes) on the span.
func (s *span) add(key string, v int64) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]int64)
	}
	s.Attrs[key] += v
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = int64(time.Since(s.tracer.t0))
	s.tracer.mu.Lock()
	s.tracer.spans = append(s.tracer.spans, s)
	s.tracer.mu.Unlock()
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// writeJSONL writes every recorded span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
