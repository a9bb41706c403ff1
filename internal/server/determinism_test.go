package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privanalyzer/internal/api"
	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/telemetry"

	"net/http"
	"net/http/httptest"
)

// normalize zeroes the wall-clock fields — the only part of the wire form
// that may legitimately differ between runs — and re-encodes. Everything
// else (verdicts, witnesses, state counts) must be byte-identical.
func normalize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var ar api.AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("response is not an AnalyzeResponse: %v\n%s", err, raw)
	}
	for pi := range ar.Phases {
		for qi := range ar.Phases[pi].Queries {
			q := &ar.Phases[pi].Queries[qi]
			q.ElapsedNS = 0
			if q.Stats != nil {
				q.Stats.StatesPerSec = 0
				q.Stats.ElapsedNS = 0
				if c := q.Stats.Cost; c != nil {
					// The ledger's resource fields are wall-clock-class;
					// its counts stay in the comparison.
					c.WallNS, c.CPUNS, c.AllocBytes = 0, 0, 0
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, &ar); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServingDeterminism pins the serving contract from DESIGN.md: the same
// program analyzed through N concurrent requests against one warm,
// LRU-shared checker returns byte-identical verdicts, witnesses, and state
// counts to the one-shot CLI path (core.AnalyzeContext + api.FromAnalysis +
// api.Encode — exactly what `privanalyzer -json` emits).
func TestServingDeterminism(t *testing.T) {
	// Reference: the one-shot CLI path, fresh checker, no server.
	p, err := programs.ByName("su")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeContext(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var refBuf bytes.Buffer
	if err := api.Encode(&refBuf, api.FromAnalysis(a, false)); err != nil {
		t.Fatal(err)
	}
	ref := normalize(t, refBuf.Bytes())

	reg := telemetry.New()
	s := New(Config{Concurrency: 4, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	const n = 8
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"su"}`)
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, body := range bodies {
		if got := normalize(t, body); !bytes.Equal(got, ref) {
			t.Errorf("request %d diverged from the one-shot CLI run:\n--- server ---\n%s\n--- cli ---\n%s",
				i, got, ref)
		}
	}

	// Warm-checker reuse is observable: with 8 requests through one resident
	// checker, the transition cache must have hit (the counter the
	// acceptance criterion names).
	hits := metricValue(t, ts.URL, "rosa_succ_cache_hits_total")
	if hits <= 0 {
		t.Errorf("rosa_succ_cache_hits_total = %d after 8 warm requests, want > 0", hits)
	}
}

// metricValue scrapes one counter from /metrics.
func metricValue(t *testing.T, baseURL, name string) int64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	for _, line := range strings.Split(readAll(t, resp), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// coldAnalyzeBytes is the one-shot CLI path's normalized response for a
// program: a cold core.AnalyzeContext on a fresh checker, converted and
// encoded exactly as `privanalyzer -json` does.
func coldAnalyzeBytes(t *testing.T, name string) []byte {
	t.Helper()
	p, err := programs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.AnalyzeContext(context.Background(), p, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := api.Encode(&buf, api.FromAnalysis(a, false)); err != nil {
		t.Fatal(err)
	}
	return normalize(t, buf.Bytes())
}

// TestMemoizedAnalyzeMatchesCLI: for every modeled program, the response
// that measures the program and the one that reuses the memoized
// measurement are both byte-identical to the cold CLI output — the memo
// removes repeated work, never changes a verdict, witness, state count, or
// instruction count.
func TestMemoizedAnalyzeMatchesCLI(t *testing.T) {
	reg := telemetry.New()
	_, ts := testServer(t, Config{Concurrency: 2, Registry: reg})
	for _, name := range programs.Names() {
		ref := coldAnalyzeBytes(t, name)
		for i, label := range []string{"measured", "memoized"} {
			resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"`+name+`"}`)
			if resp.StatusCode != 200 {
				t.Fatalf("%s request %d: status %d: %s", name, i, resp.StatusCode, body)
			}
			if got := normalize(t, body); !bytes.Equal(got, ref) {
				t.Errorf("%s: %s response diverged from the cold CLI run:\n--- server ---\n%s\n--- cli ---\n%s",
					name, label, got, ref)
			}
		}
	}
	n := int64(len(programs.Names()))
	if got := metricValue(t, ts.URL, "server_measure_misses_total"); got != n {
		t.Errorf("server_measure_misses_total = %d, want %d (one per program)", got, n)
	}
	if got := metricValue(t, ts.URL, "server_measure_hits_total"); got != n {
		t.Errorf("server_measure_hits_total = %d, want %d (one per repeat)", got, n)
	}
}

// TestConcurrentFirstAnalyzeMeasuresOnce: concurrent first requests for one
// program wait for a single measurement instead of each running their own.
func TestConcurrentFirstAnalyzeMeasuresOnce(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 8})
	const n = 8
	status := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/analyze", `{"program":"sshd","attacks":[1]}`)
			status[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, st := range status {
		if st != 200 {
			t.Fatalf("request %d: status %d", i, st)
		}
	}
	if got := metricValue(t, ts.URL, "server_measure_misses_total"); got != 1 {
		t.Errorf("server_measure_misses_total = %d after %d concurrent first requests, want 1", got, n)
	}
	if got := metricValue(t, ts.URL, "server_measure_hits_total"); got != n-1 {
		t.Errorf("server_measure_hits_total = %d, want %d", got, n-1)
	}
}

// TestDefaultLRUHoldsEveryKey: the default LRU keeps all nine keys the
// server uses — the seven programs plus the base and extended ad-hoc
// checkers — resident together, so ad-hoc traffic never evicts a program's
// measurement.
func TestDefaultLRUHoldsEveryKey(t *testing.T) {
	_, ts := testServer(t, Config{Concurrency: 2})
	analyzeAll := func() {
		for _, name := range programs.Names() {
			resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"`+name+`","attacks":[1]}`)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
			}
		}
	}
	analyzeAll()
	for _, ext := range []string{"false", "true"} {
		resp, body := postJSON(t, ts.URL+"/v1/query",
			`{"attack":2,"privs":"CapSetuid","syscalls":["open","chown","setuid"],"extended":`+ext+`}`)
		if resp.StatusCode != 200 {
			t.Fatalf("query extended=%s: status %d: %s", ext, resp.StatusCode, body)
		}
	}
	analyzeAll()
	if got := metricValue(t, ts.URL, "server_checkers_resident"); got != 9 {
		t.Errorf("server_checkers_resident = %d, want 9", got)
	}
	if got, want := metricValue(t, ts.URL, "server_measure_misses_total"), int64(len(programs.Names())); got != want {
		t.Errorf("server_measure_misses_total = %d, want %d: an ad-hoc key evicted a program entry", got, want)
	}
}

// TestAnalyzeSpanMeasurementLabel: the analyze root span says whether the
// request ran the program's measurement or reused the memoized one.
func TestAnalyzeSpanMeasurementLabel(t *testing.T) {
	reg := telemetry.NewCapture()
	_, ts := testServer(t, Config{Concurrency: 1, Registry: reg})
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/analyze", `{"program":"ping","attacks":[1]}`); resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	var buf bytes.Buffer
	if err := reg.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec struct {
			Type   string            `json:"type"`
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("JSONL line %q: %v", line, err)
		}
		if rec.Type == "span" && rec.Name == "analyze" {
			labels = append(labels, rec.Labels["measurement"])
		}
	}
	if want := []string{"measured", "cached"}; strings.Join(labels, ",") != strings.Join(want, ",") {
		t.Errorf("analyze span measurement labels = %v, want %v", labels, want)
	}
}
