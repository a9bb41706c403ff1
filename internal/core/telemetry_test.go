package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"privanalyzer/internal/programs"
	"privanalyzer/internal/telemetry"
)

// jsonlRecord is the wire form of one telemetry JSONL line (span or the
// trailing metrics record).
type jsonlRecord struct {
	Type     string            `json:"type"`
	ID       int64             `json:"id"`
	Parent   int64             `json:"parent"`
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels"`
	Running  bool              `json:"running"`
	Counters map[string]int64  `json:"counters"`
}

// TestAnalyzeSpanHierarchy runs the pipeline with a telemetry registry in the
// context and verifies the exported span tree: one root "analyze" span, the
// "autopriv" and "chronopriv" stage spans under it, and one "rosa.query" span
// per query carrying the (program, phase, attack, verdict) labels.
func TestAnalyzeSpanHierarchy(t *testing.T) {
	p, err := programs.ByName("ping")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewCapture()
	ctx := telemetry.NewContext(context.Background(), reg)
	a, err := AnalyzeContext(ctx, p, Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	queries := 0
	for _, pr := range a.Phases {
		for _, v := range pr.Verdicts {
			if v != 0 {
				queries++
			}
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var recs []jsonlRecord
	for i, line := range lines {
		var r jsonlRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		recs = append(recs, r)
	}

	var root jsonlRecord
	byName := make(map[string][]jsonlRecord)
	for _, r := range recs {
		if r.Type != "span" {
			continue
		}
		if r.Running {
			t.Errorf("span %s (id %d) still running after analysis", r.Name, r.ID)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	if n := len(byName["analyze"]); n != 1 {
		t.Fatalf("got %d analyze root spans, want 1", n)
	}
	root = byName["analyze"][0]
	if root.Parent != 0 {
		t.Errorf("root span has parent %d, want none", root.Parent)
	}
	if root.Labels["program"] != "ping" {
		t.Errorf("root labels = %v, want program=ping", root.Labels)
	}
	for _, stage := range []string{"autopriv", "chronopriv"} {
		ss := byName[stage]
		if len(ss) != 1 {
			t.Fatalf("got %d %s spans, want 1", len(ss), stage)
		}
		if ss[0].Parent != root.ID {
			t.Errorf("%s span parent = %d, want root %d", stage, ss[0].Parent, root.ID)
		}
		if ss[0].Labels["program"] != "ping" {
			t.Errorf("%s labels = %v, want program=ping", stage, ss[0].Labels)
		}
	}
	qs := byName["rosa.query"]
	if len(qs) != queries {
		t.Errorf("got %d rosa.query spans, want %d (one per query)", len(qs), queries)
	}
	for _, q := range qs {
		if q.Parent != root.ID {
			t.Errorf("query span parent = %d, want root %d", q.Parent, root.ID)
		}
		for _, key := range []string{"program", "phase", "attack", "verdict"} {
			if q.Labels[key] == "" {
				t.Errorf("query span labels = %v, missing %q", q.Labels, key)
			}
		}
	}

	last := recs[len(recs)-1]
	if last.Type != "metrics" {
		t.Fatalf("last record type = %q, want the metrics summary", last.Type)
	}
	if last.Counters["core_analyses_total"] != 1 {
		t.Errorf("core_analyses_total = %d, want 1", last.Counters["core_analyses_total"])
	}
	if got := last.Counters["rosa_queries_total"]; got != int64(queries) {
		t.Errorf("rosa_queries_total = %d, want %d", got, queries)
	}
}
