package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"privanalyzer/internal/programs"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{3.1, 1.2}, 0.725, 2.15, 3.575},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		for _, p := range [][2]float64{{q1, c.q1}, {q2, c.q2}, {q3, c.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
				break
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func samplesOf(durs map[string][]time.Duration) []sample {
	var out []sample
	for class, ds := range durs {
		for _, d := range ds {
			out = append(out, sample{class: class, dur: d})
		}
	}
	return out
}

func spreadDurs(n int, base, step time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = base + time.Duration(i)*step
	}
	return out
}

func TestPercentilesTailKeepsTenBeyond(t *testing.T) {
	s := samplesOf(map[string][]time.Duration{"a": spreadDurs(100, time.Millisecond, time.Microsecond)})
	p50, tail, err := percentiles(s)
	if err != nil {
		t.Fatal(err)
	}
	if tail.beyond != minBeyond || tail.rank != 89 || tail.pct != 90 {
		t.Errorf("tail = %+v, want rank 89 (p90) with 10 beyond", tail)
	}
	if want := time.Millisecond + 89*time.Microsecond; tail.value != want {
		t.Errorf("tail value %v, want %v", tail.value, want)
	}
	if p50.rank != 49 || p50.value != time.Millisecond+49*time.Microsecond {
		t.Errorf("p50 = %+v, want rank 49", p50)
	}
}

func TestPercentilesRejectTooFewSamples(t *testing.T) {
	s := samplesOf(map[string][]time.Duration{"a": spreadDurs(minBeyond, time.Millisecond, time.Microsecond)})
	if _, _, err := percentiles(s); !errors.Is(err, errPlacement) {
		t.Fatalf("10 samples: err = %v, want a placement error", err)
	}
}

func TestPercentilesRejectClassBoundary(t *testing.T) {
	// Half light ops, half heavy: the median falls on the cliff between
	// the two clusters, where one extra op of either class moves it 100×.
	s := samplesOf(map[string][]time.Duration{
		"query":   spreadDurs(50, time.Millisecond, time.Microsecond),
		"analyze": spreadDurs(50, 100*time.Millisecond, time.Microsecond),
	})
	_, _, err := percentiles(s)
	if !errors.Is(err, errPlacement) || !strings.Contains(err.Error(), "op_p50_ms") {
		t.Fatalf("err = %v, want op_p50_ms at a class boundary", err)
	}

	// Nine light ops for every heavy one: the median sits inside the light
	// class, but the tail window straddles the cliff when only 10 heavy
	// ops ran.
	s = samplesOf(map[string][]time.Duration{
		"query":   spreadDurs(90, time.Millisecond, time.Microsecond),
		"analyze": spreadDurs(10, 100*time.Millisecond, time.Microsecond),
	})
	_, tail, err := percentiles(s)
	if !errors.Is(err, errPlacement) || !strings.Contains(err.Error(), "op_tail_ms") {
		t.Fatalf("err = %v (tail %s), want op_tail_ms at a class boundary", err, tail)
	}

	// Interleaved classes of similar latency are no boundary.
	s = samplesOf(map[string][]time.Duration{
		"sshd":   spreadDurs(50, 500*time.Millisecond, time.Millisecond),
		"thttpd": spreadDurs(50, 480*time.Millisecond, time.Millisecond),
	})
	if _, _, err := percentiles(s); err != nil {
		t.Fatalf("overlapping classes: %v", err)
	}
}

func TestQuietPassesLeaveOutStolenPasses(t *testing.T) {
	t0 := time.Now()
	// Four passes of 100 ticks and 1 s each; stolen ticks per pass as given.
	build := func(stolen ...int64) *measurement {
		m := &measurement{passes: len(stolen)}
		var steal, ticks int64
		for p, st := range stolen {
			m.starts = append(m.starts, mark{at: t0.Add(time.Duration(p) * time.Second), cpu: time.Duration(p) * time.Second, steal: steal, ticks: ticks})
			steal += st
			ticks += 100
			m.samples = append(m.samples, sample{class: "a", pass: p, dur: time.Duration(p+1) * time.Millisecond})
		}
		m.last.mark = mark{at: t0.Add(time.Duration(len(stolen)) * time.Second), cpu: time.Duration(len(stolen)) * time.Second, steal: steal, ticks: ticks}
		return m
	}
	passesOf := func(tm timing) []int {
		var ps []int
		for _, s := range tm.samples {
			ps = append(ps, s.pass)
		}
		return ps
	}
	// Pass 1 lost more than stealLimit; the other three are kept.
	tm := build(0, 10, 2, 1).quietPasses(0, 4)
	if got := fmt.Sprint(passesOf(tm)); got != "[0 2 3]" || tm.wall != 3*time.Second || tm.cpu != 3*time.Second {
		t.Errorf("kept passes %s, wall %v, cpu %v; want [0 2 3], 3s, 3s", got, tm.wall, tm.cpu)
	}
	if tm.steal != 0.01 || tm.opsPerSec() != 1 {
		t.Errorf("steal %v, ops/s %v; want 0.01, 1", tm.steal, tm.opsPerSec())
	}
	// Only one quiet pass of four: the least-stolen three quarters are kept.
	tm = build(5, 10, 2, 30).quietPasses(0, 4)
	if got := fmt.Sprint(passesOf(tm)); got != "[0 1 2]" || tm.passes != 3 || tm.ofTotal != 4 {
		t.Errorf("kept passes %s (%d of %d); want [0 1 2] (3 of 4)", got, tm.passes, tm.ofTotal)
	}
	// A range covers only its own passes.
	if got := fmt.Sprint(passesOf(build(0, 0, 0, 0).quietPasses(2, 4))); got != "[2 3]" {
		t.Errorf("passes 2–3: kept %s", got)
	}
}

func TestFinishExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer
	ok := &summary{Correct: true, Attempted: 3, Metrics: map[string]metric{"ops_per_s": {1.5, "1/s"}}}
	if code := finish(ok, nil, &out, &errOut); code != 0 {
		t.Fatalf("clean run: exit %d", code)
	}
	if !strings.HasPrefix(out.String(), `{"correct":true,"attempted":3,"failed":0,"metrics":{"ops_per_s":{"value":1.5,"unit":"1/s"}}}`) {
		t.Errorf("result line = %q", out.String())
	}
	out.Reset()
	bad := &summary{Correct: false, Attempted: 3, Failed: 1, Metrics: map[string]metric{}}
	if code := finish(bad, nil, &out, &errOut); code == 0 || !strings.Contains(out.String(), `"failed":1`) {
		t.Fatalf("failed op: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := finish(nil, errors.New("set-up failed"), &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("failed set-up: exit %d, output %q", code, out.String())
	}
}

// testRefs computes the reference once for the tests that need one.
func testRefs(t *testing.T) []*progRef {
	t.Helper()
	progs, err := programs.All()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := buildReference(context.Background(), progs)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

func TestReferenceGateTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the reference")
	}
	ctx := context.Background()
	refs := testRefs(t)
	var ping *progRef
	for _, r := range refs {
		if r.prog.Name == "ping" {
			ping = r
		}
	}
	if ping == nil {
		t.Fatal("no ping reference")
	}
	var cells int
	for _, r := range refs {
		cells += len(r.cells)
	}
	if cells != 140 {
		t.Fatalf("%d grid cells, want 140", cells)
	}

	// Corrupt one instruction count and one cell's state count.
	ping.lines[1] = strings.Replace(ping.lines[1], " instructions", "0 instructions", 1)
	ping.cells[0].want = strings.Replace(ping.cells[0].want, " states", "0 states", 1)

	failures := func(b *bench, pick func(op) bool) (failed, ran int) {
		t.Helper()
		for _, o := range b.pass(rand.New(rand.NewSource(1))) {
			if !pick(o) {
				continue
			}
			ran++
			if _, err := o.do(ctx, nil); err != nil {
				if !strings.Contains(err.Error(), "reference") {
					t.Errorf("%s: unexpected error %v", o.class, err)
				}
				failed++
			}
		}
		return failed, ran
	}
	isPing := func(o op) bool { return o.class == "ping" }
	if failed, ran := failures(evalCold(refs), isPing); failed != 1 || ran != 1 {
		t.Errorf("eval_cold: %d of %d ping analyses failed, want 1 of 1", failed, ran)
	}
	if failed, ran := failures(rosaGrid(refs), isPing); failed != 1 || ran != len(ping.cells) {
		t.Errorf("rosa_grid: %d of %d ping queries failed, want 1 of %d", failed, ran, len(ping.cells))
	}
	sw, err := serveWarm(refs)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.close()
	if failed, ran := failures(sw, func(o op) bool { return o.class == "analyze/ping" }); failed != 1 || ran != 1 {
		t.Errorf("serve_warm: %d of %d ping analyses failed, want 1 of 1", failed, ran)
	}
	if failed, ran := failures(sw, func(o op) bool { return o.class == "query" }); failed != 1 || ran != cells {
		t.Errorf("serve_warm: %d of %d queries failed, want 1 of %d", failed, ran, cells)
	}
}

// TestWorkloadsSmoke runs each workload for one pass, untraced and traced,
// and checks that every op matches the reference and every metric is
// reported. A one-pass run is too short for trustworthy percentiles, so a
// placement error is the one failure tolerated.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd := []string{"setup_s", "ops_per_s", "cpu_ms_per_op", "peak_rss_mb"}
	perLayer := []string{
		"programs.build_ms", "autopriv.analyze_ms", "chronopriv.measure_ms", "chronopriv.instructions",
		"chronopriv.ns_per_instr", "attacks.build_us", "rosa.query_ms", "rosa.states", "rosa.ns_per_state",
		"rosa.cache_hit_ratio", "rosa.compiled_share", "core.self_ms", "api.encode_ms", "api.response_kb",
		"server.self_ms", "server.queue_wait_ms", "server.shed", "runtime.alloc_mb_per_op",
		"runtime.gc_per_op", "trace.overhead_ratio", "host.steal_share", "trace.layer_coverage",
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				var out bytes.Buffer
				cfg := config{workload: w, seed: 7, run: time.Millisecond, trace: traced, setups: 1,
					traceOut: filepath.Join(t.TempDir(), "trace.jsonl")}
				sum, err := execute(cfg, &out)
				if err != nil && !errors.Is(err, errPlacement) {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if sum == nil || !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
					t.Fatalf("summary %+v\n%s", sum, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for _, name := range want {
					if _, ok := sum.Metrics[name]; !ok {
						t.Errorf("metric %s missing\n%s", name, out.String())
					}
				}
				if traced {
					// Exact counts: one pass of each workload repeats them.
					states := map[string]float64{"eval_cold": 51511, "rosa_grid": 51511}
					if want, ok := states[w]; ok && sum.Metrics["rosa.states"].Value != want {
						t.Errorf("rosa.states = %v, want %v", sum.Metrics["rosa.states"].Value, want)
					}
					if w == "eval_cold" && sum.Metrics["chronopriv.instructions"].Value < 110e6 {
						t.Errorf("chronopriv.instructions = %v, want ~111.0M", sum.Metrics["chronopriv.instructions"].Value)
					}
				}
			})
		}
	}
}
