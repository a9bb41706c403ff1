package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// execute sets the workload up until cfg.setups set-ups were quiet or
// 2·cfg.setups−1 have run, keeps the cfg.setups that lost the least CPU
// time to steal (setup_s is their median), measures the last set-up for the
// run length, and returns the summary. An error with a non-nil summary is a
// failed check on a completed run.
func execute(cfg config, out io.Writer) (*summary, error) {
	ctx := context.Background()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var b *bench
	var setups []setupTimes
	for quiet := 0; quiet < cfg.setups && len(setups) < 2*cfg.setups-1; {
		if b != nil {
			b.close()
		}
		before := markNow()
		nb, st, err := setup(ctx, cfg.workload, cfg.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.steal = stealShare(before, markNow())
		if st.steal <= stealLimit {
			quiet++
		}
		b = nb
		setups = append(setups, st)
	}
	defer b.close()
	sort.SliceStable(setups, func(i, j int) bool { return setups[i].steal < setups[j].steal })
	setups = setups[:cfg.setups]
	m := measure(ctx, b, cfg, tr)

	sum := &summary{Correct: true, Attempted: len(m.samples), Metrics: map[string]metric{}}
	for _, s := range m.samples {
		if s.err != nil {
			sum.Failed++
			if sum.Failed <= 5 {
				fmt.Fprintf(out, "FAILED %s (pass %d): %v\n", s.class, s.pass, s.err)
			}
		}
	}
	sum.Correct = sum.Failed == 0
	printManifest(out, cfg, b, m)
	fmt.Fprintf(out, "host steal share %.4f (CPU time the hypervisor gave to other machines during the timed window)\n",
		stealShare(m.first.mark, m.last.mark))

	var err error
	if cfg.trace {
		err = layerMetrics(out, sum, m, tr, setups)
		if err == nil {
			err = tr.writeJSONL(cfg.traceOut)
			if err == nil {
				fmt.Fprintf(out, "trace: wrote %d spans to %s\n", len(tr.spans), cfg.traceOut)
			}
		}
	} else {
		err = endToEndMetrics(out, sum, m, setups)
	}
	if err == nil && !sum.Correct {
		err = fmt.Errorf("%d of %d ops differ from the reference or failed", sum.Failed, sum.Attempted)
	}
	return sum, err
}

// printManifest records what ran: seed, load shape, run length and the
// per-class op counts.
func printManifest(out io.Writer, cfg config, b *bench, m *measurement) {
	wall := m.last.at.Sub(m.first.at)
	fmt.Fprintf(out, "workload %s  seed %d  trace %v  run length %.1f s (measured %.3f s over %d passes)\n",
		cfg.workload, cfg.seed, cfg.trace, cfg.run.Seconds(), wall.Seconds(), m.passes)
	fmt.Fprintf(out, "load: %s\n", b.loop)
	counts := map[string]int{}
	for _, s := range m.samples {
		counts[s.class]++
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = fmt.Sprintf("%s=%d", c, counts[c])
	}
	fmt.Fprintf(out, "mix (ops per class): %s\n", strings.Join(parts, " "))
}

func put(out io.Writer, sum *summary, name string, v float64, unit, note string) {
	sum.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(out, "%-26s %14.6g %-6s %s\n", name, v, unit, note)
}

// endToEndMetrics reports what a user of the system sees, from the
// untraced run.
func endToEndMetrics(out io.Writer, sum *summary, m *measurement, setups []setupTimes) error {
	totals := make([]float64, len(setups))
	steals := make([]float64, len(setups))
	for i, st := range setups {
		totals[i] = st.total.Seconds()
		steals[i] = st.steal
	}
	put(out, sum, "setup_s", median(totals), "s", fmt.Sprintf("median of the %d least-stolen set-ups %v (steal shares %v)",
		len(totals), roundAll(totals), roundAll(steals)))
	t := m.quietPasses(0, m.passes)
	fmt.Fprintf(out, "timings below are taken from %s\n", t)
	n := len(t.samples)
	put(out, sum, "ops_per_s", t.opsPerSec(), "1/s", fmt.Sprintf("%d ops in %.3f s", n, t.wall.Seconds()))
	p50, tail, perr := percentiles(t.samples)
	if n > minBeyond {
		put(out, sum, "op_p50_ms", ms(p50.value), "ms", p50.String())
		put(out, sum, "op_tail_ms", ms(tail.value), "ms", tail.String())
	}
	put(out, sum, "cpu_ms_per_op", ms(t.cpu)/float64(n), "ms", "process user+sys CPU (getrusage) per op")
	put(out, sum, "peak_rss_mb", float64(peakRSS())/1e6, "MB", "peak resident memory (maxrss), set-ups included")
	all := len(m.samples)
	fmt.Fprintf(out, "%-26s %14.6g %-6s %d of %d ops failed, all passes (reported as failed/attempted)\n",
		"failed_frac", float64(sum.Failed)/float64(all), "", sum.Failed, all)
	return perr
}

// passAgg sums one pass's spans by layer.
type passAgg struct {
	dur   map[string]time.Duration
	count map[string]int
	attr  map[string]int64
	// layers is the time the named layers cover, ops the ops' wall time.
	layers, ops time.Duration
}

// layerMetrics reports the per-layer metrics from the traced half of the
// run, and from the untraced half the window counters and the tracing
// overhead.
func layerMetrics(out io.Writer, sum *summary, m *measurement, tr *tracer, setups []setupTimes) error {
	if m.tracedFrom < 0 {
		return fmt.Errorf("no traced pass ran")
	}
	byID := map[int64]*span{}
	perOp := map[int64][]*span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
		if s.Pass >= m.tracedFrom {
			perOp[s.Op] = append(perOp[s.Op], s)
		}
	}
	passes := map[int]*passAgg{}
	// Self times are differences between an op and its replay, so they are
	// taken per op and reported as medians, which the heavy programs'
	// run-to-run noise does not drag.
	var coreSelf, serverSelf []float64
	for _, spans := range perOp {
		p := passes[spans[0].Pass]
		if p == nil {
			p = &passAgg{dur: map[string]time.Duration{}, count: map[string]int{}, attr: map[string]int64{}}
			passes[spans[0].Pass] = p
		}
		op := map[string]time.Duration{}
		for _, s := range spans {
			op[s.Name] += s.dur()
			p.dur[s.Name] += s.dur()
			p.count[s.Name]++
			for k, v := range s.Attrs {
				p.attr[s.Name+"."+k] += v
			}
			parent := byID[s.Parent]
			underDirect := parent != nil && parent.Name == "direct"
			if (underDirect && s.Name != "autopriv.analyze") || (parent != nil && parent.Name == "op" && s.Name == "rosa.query") {
				p.layers += s.dur()
			}
		}
		p.ops += op["op"]
		if op["programs.measure"] > 0 {
			coreSelf = append(coreSelf, ms(op["core.analyze"]-op["programs.measure"]-op["rosa.query"]))
		}
		if op["server.request"] > 0 {
			serverSelf = append(serverSelf, ms(op["server.request"]-op["direct"]))
		}
	}
	perPass := func(f func(p *passAgg) float64) float64 {
		xs := make([]float64, 0, len(passes))
		for _, p := range passes {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	builds := make([]float64, len(setups))
	for i, st := range setups {
		builds[i] = ms(st.build)
	}
	put(out, sum, "programs.build_ms", median(builds), "ms", "programs.All per set-up, median")
	put(out, sum, "autopriv.analyze_ms", perPass(func(p *passAgg) float64 { return ms(p.dur["autopriv.analyze"]) }), "ms", "Σ autopriv.Analyze per pass")
	measureNS := func(p *passAgg) float64 { return float64(p.dur["programs.measure"] - p.dur["autopriv.analyze"]) }
	put(out, sum, "chronopriv.measure_ms", perPass(measureNS)/1e6, "ms", "Σ Program.MeasureContext minus AutoPriv per pass")
	put(out, sum, "chronopriv.instructions", perPass(func(p *passAgg) float64 { return float64(p.attr["programs.measure.instructions"]) }), "count", "dynamic instructions per pass")
	put(out, sum, "chronopriv.ns_per_instr", perPass(func(p *passAgg) float64 {
		return ratio(measureNS(p), float64(p.attr["programs.measure.instructions"]))
	}), "ns", "")
	put(out, sum, "attacks.build_us", perPass(func(p *passAgg) float64 {
		return ratio(float64(p.dur["attacks.build"])/1e3, float64(p.count["attacks.build"]))
	}), "us", "attacks.Build per query")
	put(out, sum, "rosa.query_ms", perPass(func(p *passAgg) float64 { return ms(p.dur["rosa.query"]) }), "ms", "Σ Checker.Run per pass")
	put(out, sum, "rosa.states", perPass(func(p *passAgg) float64 { return float64(p.attr["rosa.query.states"]) }), "count", "states explored per pass")
	put(out, sum, "rosa.ns_per_state", perPass(func(p *passAgg) float64 {
		return ratio(float64(p.dur["rosa.query"]), float64(p.attr["rosa.query.states"]))
	}), "ns", "")
	put(out, sum, "rosa.cache_hit_ratio", perPass(func(p *passAgg) float64 {
		h := float64(p.attr["rosa.query.cache_hits"])
		return ratio(h, h+float64(p.attr["rosa.query.cache_misses"]))
	}), "ratio", "transition-cache hits / lookups, from the wire stats")
	put(out, sum, "rosa.compiled_share", perPass(func(p *passAgg) float64 {
		c := float64(p.attr["rosa.query.compiled_matches"])
		return ratio(c, c+float64(p.attr["rosa.query.fallback_matches"]))
	}), "ratio", "compiled / all rule matches, from the wire stats")
	put(out, sum, "core.self_ms", median(coreSelf), "ms", "analysis wall − measure − Σ queries, median per analysis")
	put(out, sum, "api.encode_ms", perPass(func(p *passAgg) float64 {
		return ratio(ms(p.dur["api.encode"]), float64(p.count["api.encode"]))
	}), "ms", "api.FromAnalysis/FromResult + api.Encode per request")
	put(out, sum, "api.response_kb", perPass(func(p *passAgg) float64 {
		return ratio(float64(p.attr["server.request.bytes"])/1024, float64(p.count["server.request"]))
	}), "KiB", "response body per request")
	put(out, sum, "server.self_ms", median(serverSelf), "ms", "request wall − its direct path (warm checker + encode), median per request")

	// Window counters come from the untraced half.
	var nu float64
	for _, s := range m.samples {
		if !s.traced {
			nu++
		}
	}
	if m.mid.hasStats && m.mid.waits > m.first.waits {
		put(out, sum, "server.queue_wait_ms", float64(m.mid.waitNS-m.first.waitNS)/float64(m.mid.waits-m.first.waits)/1e6, "ms", "mean queue wait, /v1/metrics.json")
	} else {
		put(out, sum, "server.queue_wait_ms", 0, "ms", "no server in this workload")
	}
	put(out, sum, "server.shed", float64(m.mid.shed-m.first.shed), "count", "requests shed, /v1/metrics.json (expected 0)")
	put(out, sum, "runtime.alloc_mb_per_op", float64(m.mid.alloc-m.first.alloc)/1e6/nu, "MB", "heap allocated per op")
	put(out, sum, "runtime.gc_per_op", float64(m.mid.gcs-m.first.gcs)/nu, "count", "GC cycles per op")
	// The overhead compares ops_per_s, taken as for the end-to-end metric,
	// between the two halves: span recording is inside the traced passes'
	// wall time, the replays after it.
	u, t := m.quietPasses(0, m.tracedFrom), m.quietPasses(m.tracedFrom, m.passes)
	put(out, sum, "trace.overhead_ratio", u.opsPerSec()/t.opsPerSec(), "ratio", fmt.Sprintf("untraced %.4g ops/s (%d of %d passes) / traced %.4g ops/s (%d of %d passes)",
		u.opsPerSec(), u.passes, u.ofTotal, t.opsPerSec(), t.passes, t.ofTotal))
	put(out, sum, "host.steal_share", stealShare(m.first.mark, m.last.mark), "ratio", "CPU time stolen by the hypervisor during the run")
	put(out, sum, "trace.layer_coverage", perPass(func(p *passAgg) float64 { return ratio(float64(p.layers), float64(p.ops)) }), "ratio", "time in the named layers / op wall")
	fmt.Fprintf(out, "per-layer figures are medians over %d traced passes\n", len(passes))
	return nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}
