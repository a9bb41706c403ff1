package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWriteJSONLHierarchy(t *testing.T) {
	r := NewCapture()
	root := r.StartSpan("analyze", nil, "program", "su")
	stage := r.StartSpan("chronopriv", root, "program", "su")
	q := r.StartSpan("rosa.query", stage, "program", "su", "phase", "su_priv1", "attack", "1")
	q.SetLabel("verdict", "✓")
	q.End()
	stage.End()
	root.End()
	r.Counter("rosa_queries_total").Add(1)
	r.Histogram("rosa_query_states").Observe(123)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // 3 spans + 1 metrics line
		t.Fatalf("got %d JSONL lines, want 4:\n%s", len(lines), buf.String())
	}

	// Each line must be valid standalone JSON.
	type rec struct {
		Type    string            `json:"type"`
		ID      int64             `json:"id"`
		Parent  int64             `json:"parent"`
		Name    string            `json:"name"`
		Labels  map[string]string `json:"labels"`
		DurNS   int64             `json:"dur_ns"`
		Running bool              `json:"running"`
	}
	var recs []rec
	for i, line := range lines {
		var x rec
		if err := json.Unmarshal([]byte(line), &x); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		recs = append(recs, x)
	}
	if recs[0].Type != "span" || recs[0].Name != "analyze" || recs[0].Parent != 0 {
		t.Errorf("root span record wrong: %+v", recs[0])
	}
	if recs[1].Parent != recs[0].ID {
		t.Errorf("stage parent = %d, want %d", recs[1].Parent, recs[0].ID)
	}
	if recs[2].Parent != recs[1].ID {
		t.Errorf("query parent = %d, want %d", recs[2].Parent, recs[1].ID)
	}
	for k, want := range map[string]string{"program": "su", "phase": "su_priv1", "attack": "1", "verdict": "✓"} {
		if recs[2].Labels[k] != want {
			t.Errorf("query label %s = %q, want %q", k, recs[2].Labels[k], want)
		}
	}
	for i, x := range recs[:3] {
		if x.Running {
			t.Errorf("span %d still marked running", i)
		}
		if x.DurNS < 0 {
			t.Errorf("span %d negative duration", i)
		}
	}
	if recs[3].Type != "metrics" {
		t.Errorf("final record type = %q, want metrics", recs[3].Type)
	}
	var m metricsRecord
	if err := json.Unmarshal([]byte(lines[3]), &m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["rosa_queries_total"] != 1 {
		t.Errorf("metrics counters = %v", m.Counters)
	}
	if h := m.Histograms["rosa_query_states"]; h.Count != 1 || h.Sum != 123 {
		t.Errorf("metrics histogram = %+v", h)
	}
}

func TestUnfinishedSpanExport(t *testing.T) {
	r := NewCapture()
	r.StartSpan("open", nil)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"running":true`) {
		t.Errorf("unfinished span not flagged:\n%s", buf.String())
	}
}

// promParse is a minimal Prometheus text-format parser: sample name (with
// optional labels) → value. It fails the test on any malformed line, giving
// WriteProm a format round-trip check.
func promParse(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) != 4 || f[1] != "TYPE" {
				t.Fatalf("malformed comment line: %q", line)
			}
			if f[3] != "counter" && f[3] != "gauge" && f[3] != "summary" {
				t.Fatalf("unknown metric type %q", f[3])
			}
			types[f[2]] = f[3]
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unterminated label set: %q", line)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if _, ok := types[name]; !ok {
			if _, ok := types[base]; !ok {
				t.Fatalf("sample %q precedes its # TYPE line", line)
			}
		}
		for _, c := range name {
			if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
				t.Fatalf("invalid metric name char %q in %q", c, name)
			}
		}
		samples[key] = val
	}
	return samples
}

func TestWritePromRoundTrip(t *testing.T) {
	r := New()
	r.Counter("rosa_queries_total").Add(7)
	r.Gauge("core_inflight").Set(3)
	h := r.Histogram("rosa_query_elapsed_ns")
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * int64(time.Microsecond))
	}

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples := promParse(t, buf.String())

	if samples["rosa_queries_total"] != 7 {
		t.Errorf("counter sample = %v", samples["rosa_queries_total"])
	}
	if samples["core_inflight"] != 3 {
		t.Errorf("gauge sample = %v", samples["core_inflight"])
	}
	if samples["rosa_query_elapsed_ns_count"] != 100 {
		t.Errorf("summary count = %v", samples["rosa_query_elapsed_ns_count"])
	}
	wantSum := float64(5050 * int64(time.Microsecond))
	if samples["rosa_query_elapsed_ns_sum"] != wantSum {
		t.Errorf("summary sum = %v, want %v", samples["rosa_query_elapsed_ns_sum"], wantSum)
	}
	p50 := samples[`rosa_query_elapsed_ns{quantile="0.5"}`]
	p99 := samples[`rosa_query_elapsed_ns{quantile="0.99"}`]
	if p50 <= 0 || p99 < p50 {
		t.Errorf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}

	// Deterministic output: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("WriteProm not deterministic")
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"rosa_queries_total": "rosa_queries_total",
		"rosa.query/states":  "rosa_query_states",
		"9lives":             "_9lives",
		"":                   "_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func ExampleRegistry_WriteProm() {
	r := New()
	r.Counter("queries_total").Add(2)
	var buf bytes.Buffer
	_ = r.WriteProm(&buf)
	fmt.Print(buf.String())
	// Output:
	// # TYPE queries_total counter
	// queries_total 2
}

func TestOnlyCaptureRegistriesRetainSpans(t *testing.T) {
	for _, tt := range []struct {
		name string
		reg  *Registry
		want int
	}{{"New", New(), 0}, {"NewCapture", NewCapture(), 2}} {
		root := tt.reg.StartSpan("analyze", nil)
		child := tt.reg.StartSpan("chronopriv", root)
		child.End()
		root.End()
		if got := len(tt.reg.Spans()); got != tt.want {
			t.Errorf("%s: %d spans retained, want %d", tt.name, got, tt.want)
		}
	}
}
