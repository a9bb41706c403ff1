package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"privanalyzer/internal/api"
	"privanalyzer/internal/obs"
	"privanalyzer/internal/telemetry"
)

func slowCost(wallNS int64) obs.QueryCost {
	return obs.QueryCost{WallNS: wallNS, StatesExpanded: 1}
}

// TestSlowLogEviction pins the journal's retention policy: top-K by wall
// cost, cheapest-then-oldest evicted, equal-cost newcomers rejected, and
// snapshots ordered costliest-first with ties newest-first.
func TestSlowLogEviction(t *testing.T) {
	l := newSlowLog(3)
	for _, wall := range []int64{10, 30, 20} {
		if !l.record(slowEntry{cost: slowCost(wall)}) {
			t.Fatalf("cost %d rejected with room in the journal", wall)
		}
	}
	// Full. Below the floor (10): rejected.
	if l.record(slowEntry{cost: slowCost(5)}) {
		t.Error("cost 5 admitted over floor 10")
	}
	// Exactly the floor: rejected — equal-cost newcomers must not churn.
	if l.record(slowEntry{cost: slowCost(10)}) {
		t.Error("cost 10 admitted at floor 10")
	}
	// Above the floor: admitted, evicting the 10.
	if !l.record(slowEntry{cost: slowCost(25)}) {
		t.Error("cost 25 rejected above floor 10")
	}
	// A second 25 beats the new floor (20), evicting it; the snapshot must
	// order the newer 25 before the older one.
	if !l.record(slowEntry{cost: slowCost(25)}) {
		t.Error("cost 25 rejected above floor 20")
	}

	entries, admitted := l.snapshot(0)
	if admitted != 5 {
		t.Errorf("admitted = %d, want 5", admitted)
	}
	if len(entries) != 3 {
		t.Fatalf("retained %d entries, want 3", len(entries))
	}
	wantWall := []int64{30, 25, 25}
	for i, e := range entries {
		if e.cost.WallNS != wantWall[i] {
			t.Errorf("entry %d wall = %d, want %d", i, e.cost.WallNS, wantWall[i])
		}
	}
	if entries[1].seq < entries[2].seq {
		t.Errorf("equal-cost entries ordered oldest-first: seqs %d, %d",
			entries[1].seq, entries[2].seq)
	}

	// Truncation.
	if top, _ := l.snapshot(1); len(top) != 1 || top[0].cost.WallNS != 30 {
		t.Errorf("snapshot(1) = %+v, want the single costliest entry", top)
	}
}

// TestSlowLogConcurrent hammers the journal from parallel goroutines (run
// under -race via make test-race) and checks the invariant that matters:
// the retained set is exactly the top-K costs ever offered, regardless of
// arrival order.
func TestSlowLogConcurrent(t *testing.T) {
	const (
		capacity   = 16
		writers    = 8
		perWriter  = 200
		totalOffer = writers * perWriter
	)
	l := newSlowLog(capacity)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// All costs distinct: writer-stride encoding.
				l.record(slowEntry{cost: slowCost(int64(i*writers + g + 1))})
				if i%32 == 0 {
					l.snapshot(4) // readers race the writers
				}
			}
		}(g)
	}
	wg.Wait()

	entries, admitted := l.snapshot(0)
	if len(entries) != capacity {
		t.Fatalf("retained %d entries, want %d", len(entries), capacity)
	}
	if admitted < int64(capacity) || admitted > int64(totalOffer) {
		t.Errorf("admitted = %d, want within [%d, %d]", admitted, capacity, totalOffer)
	}
	// The top-K property is order-independent: the K highest of all offered
	// costs survive, whatever the interleaving.
	got := make([]int64, len(entries))
	for i, e := range entries {
		got[i] = e.cost.WallNS
	}
	sort.Slice(got, func(i, j int) bool { return got[i] > got[j] })
	for i := 0; i < capacity; i++ {
		want := int64(totalOffer - i)
		if got[i] != want {
			t.Fatalf("retained costs = %v, want the top %d of 1..%d", got, capacity, totalOffer)
		}
	}
}

// TestSlowLogEndpoint drives the journal end to end: a costed analyze
// request with a correlation id lands in GET /v1/slowlog with its full
// identity, and the n parameter validates.
func TestSlowLogEndpoint(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Concurrency: 2, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
		strings.NewReader(`{"program":"su"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "slowlog-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("slowlog status = %d: %s", resp.StatusCode, body)
	}
	var sl api.SlowLogResponse
	if err := json.Unmarshal([]byte(body), &sl); err != nil {
		t.Fatalf("slowlog response: %v\n%s", err, body)
	}
	if sl.APIVersion != api.Version {
		t.Errorf("api_version = %q", sl.APIVersion)
	}
	if sl.Capacity != defaultSlowLogSize {
		t.Errorf("capacity = %d, want %d", sl.Capacity, defaultSlowLogSize)
	}
	if sl.Admitted < 1 || len(sl.Entries) < 1 {
		t.Fatalf("admitted = %d, entries = %d, want >= 1 after a costed analyze",
			sl.Admitted, len(sl.Entries))
	}
	e := sl.Entries[0]
	if e.Kind != "analyze" || e.Label != "su" {
		t.Errorf("entry identity = (%s, %s), want (analyze, su)", e.Kind, e.Label)
	}
	if e.RequestID != "slowlog-test-1" {
		t.Errorf("request_id = %q, want the correlation id", e.RequestID)
	}
	if e.Cost.WallNS <= 0 || e.Cost.StatesExpanded <= 0 {
		t.Errorf("cost vector not populated: %+v", e.Cost)
	}
	if e.Verdicts == "" {
		t.Error("verdict glyphs missing")
	}
	if e.Time == "" {
		t.Error("timestamp missing")
	}

	// Parameter validation.
	for _, bad := range []string{"0", "-1", "x"} {
		resp, err := http.Get(ts.URL + "/v1/slowlog?n=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("n=%s: status %d, want 400", bad, resp.StatusCode)
		}
	}

	// The admission counters reached the registry.
	if v := metricValue(t, ts.URL, "server_slowlog_admitted_total"); v < 1 {
		t.Errorf("server_slowlog_admitted_total = %d, want >= 1", v)
	}
}

// TestSlowLogSkipsUncostedRequests: a no_cost request produces no journal
// entry — the disabled path is genuinely free.
func TestSlowLogSkipsUncostedRequests(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Concurrency: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"su","search":{"no_cost":true}}`)
	if resp.StatusCode != 200 {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	var sl api.SlowLogResponse
	resp2, body2 := getJSON(t, ts.URL+"/v1/slowlog")
	if resp2.StatusCode != 200 {
		t.Fatalf("slowlog status = %d", resp2.StatusCode)
	}
	if err := json.Unmarshal(body2, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.Entries) != 0 || sl.Admitted != 0 {
		t.Errorf("no_cost analyze reached the journal: admitted=%d entries=%d",
			sl.Admitted, len(sl.Entries))
	}
}

// getJSON GETs url and returns the response and body.
func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp, []byte(readAll(t, resp))
}

// TestMetricsJSONShape pins GET /v1/metrics.json: the typed snapshot shares
// the Prometheus endpoint's data (counters, gauges, histograms), carries the
// process gauges, and keeps each histogram summary internally consistent.
func TestMetricsJSONShape(t *testing.T) {
	reg := telemetry.New()
	s := New(Config{Concurrency: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	// One real request so the request counters are non-zero.
	if resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"su"}`); resp.StatusCode != 200 {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}

	resp, body := getJSON(t, ts.URL+"/v1/metrics.json")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	var m api.MetricsResponse
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics response: %v\n%s", err, body)
	}
	if m.APIVersion != api.Version {
		t.Errorf("api_version = %q", m.APIVersion)
	}
	if m.Counters["server_requests_total"] < 1 {
		t.Errorf("server_requests_total = %d, want >= 1", m.Counters["server_requests_total"])
	}
	// The measurement memo: the one analysis measured su; none reused it.
	for name, want := range map[string]int64{
		"server_measure_misses_total": 1,
		"server_measure_hits_total":   0,
	} {
		if got, ok := m.Counters[name]; !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	// The process gauges registered by SampleProcess.
	if m.Gauges["process_goroutines"] < 1 {
		t.Errorf("process_goroutines = %d, want >= 1", m.Gauges["process_goroutines"])
	}
	if m.Gauges["process_heap_objects_bytes"] <= 0 {
		t.Errorf("process_heap_objects_bytes = %d, want > 0", m.Gauges["process_heap_objects_bytes"])
	}
	for _, name := range []string{"process_gc_pause_ns", "process_sched_latency_ns"} {
		if _, ok := m.Histograms[name]; !ok {
			t.Errorf("histogram %q missing from the snapshot", name)
		}
	}
	for name, h := range m.Histograms {
		if h.Count < 0 {
			t.Errorf("%s: count = %d", name, h.Count)
		}
		if h.Count > 0 {
			if h.Min > h.Max {
				t.Errorf("%s: min %d > max %d", name, h.Min, h.Max)
			}
			if h.P50 > h.P95 || h.P95 > h.P99 {
				t.Errorf("%s: quantiles out of order: p50=%d p95=%d p99=%d",
					name, h.P50, h.P95, h.P99)
			}
		}
	}

	// One snapshot path: a counter reported by the JSON endpoint matches the
	// Prometheus text endpoint's value for a counter no later request moves.
	jsonAdmitted := m.Counters["server_slowlog_admitted_total"]
	if prom := metricValue(t, ts.URL, "server_slowlog_admitted_total"); prom != jsonAdmitted {
		t.Errorf("slowlog admissions: json=%d prom=%d, want equal", jsonAdmitted, prom)
	}
}
