package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/autopriv"
	"privanalyzer/internal/core"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/rosa"
	"privanalyzer/internal/server"
)

// The three workloads use the same layers differently (README.md):
//
//   - eval_cold is the CLI evaluation, privanalyzer -program all: every op
//     is one cold core.AnalyzeContext, so ChronoPriv interpretation
//     dominates.
//   - rosa_grid is the Figures 5–11 query grid on a fresh checker per
//     program: ROSA search only, no interpretation, so a ChronoPriv change
//     must not move it.
//   - serve_warm is a closed loop of clients against the in-process
//     server: ROSA reads hot transition caches, every analyze re-interprets
//     its program, and the HTTP and wire-encoding layers run.
var workloadNames = []string{"eval_cold", "rosa_grid", "serve_warm"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// op is one unit of timed work. do returns the duration of the timed call
// alone; checking the result against the reference happens after the timer
// stops. When t is non-nil the op is traced: it records spans around its
// layer calls and leaves in t.replay its rerun through the layers' public
// functions, which the runner calls once the timed window has closed.
type op struct {
	class string
	do    func(ctx context.Context, t *opTrace) (time.Duration, error)
}

// bench is one workload after set-up.
type bench struct {
	clients int
	loop    string // human description of the load shape
	// pass returns the ops of the next pass; rng is the seeded stream.
	pass func(rng *rand.Rand) []op
	// srv is the in-process server (serve_warm only).
	srv *server.Server
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.Close()
	}
}

// setupTimes records one set-up's durations.
type setupTimes struct {
	total, build time.Duration
	steal        float64 // share of the host's CPU time stolen meanwhile
}

// setup builds the workload: the 7 calibrated models, the reference, the
// workload's inputs, and — for serve_warm — the server; then it runs one
// untimed warm-up pass, so cache filling shows in set-up time instead of
// vanishing from it. A non-nil tr marks a traced run.
func setup(ctx context.Context, workload string, seed int64, tr *tracer) (*bench, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	var setupTrace *opTrace
	if tr != nil {
		setupTrace = &opTrace{tracer: tr, pass: -1, class: "setup"}
	}
	sp := setupTrace.start(nil, "programs.build")
	progs, err := programs.All()
	sp.end()
	st.build = time.Since(start)
	if err != nil {
		return nil, st, fmt.Errorf("programs.All: %w", err)
	}
	refs, err := buildReference(ctx, progs)
	if err != nil {
		return nil, st, err
	}
	var b *bench
	switch workload {
	case "eval_cold":
		b = evalCold(refs)
	case "rosa_grid":
		b = rosaGrid(refs)
	case "serve_warm":
		b, err = serveWarm(refs)
	}
	if err != nil {
		return nil, st, err
	}
	// The warm-up pass draws from its own stream so the timed run starts
	// on the same first pass whatever the number of set-ups. In a traced
	// run it also replays each op, warming the replay's own checkers.
	warm := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, o := range b.pass(warm) {
		var t *opTrace
		if tr != nil {
			t = &opTrace{tracer: newTracer(), op: int64(i), class: o.class}
		}
		_, err := o.do(ctx, t)
		if err == nil && t != nil && t.replay != nil {
			err = t.replay(ctx)
		}
		if err != nil {
			b.close()
			return nil, st, fmt.Errorf("warm-up %s: %w", o.class, err)
		}
	}
	st.total = time.Since(start)
	return b, st, nil
}

// evalCold: each pass analyses the 7 programs in Table II order, each with
// zero core.Options and so a fresh checker — privanalyzer -program all.
// The order is the CLI's and does not depend on the seed.
func evalCold(refs []*progRef) *bench {
	ops := make([]op, len(refs))
	for i, r := range refs {
		r := r
		ops[i] = op{class: r.prog.Name, do: func(ctx context.Context, t *opTrace) (time.Duration, error) {
			sp := t.start(nil, "op")
			inner := t.start(sp, "core.analyze")
			start := time.Now()
			a, err := core.AnalyzeContext(ctx, r.prog, core.Options{})
			d := time.Since(start)
			inner.end()
			sp.end()
			if err != nil {
				return d, err
			}
			if err := r.checkAnalysis(api.FromAnalysis(a, false)); err != nil {
				return d, err
			}
			if t != nil {
				t.replay = func(ctx context.Context) error {
					return replayAnalysis(ctx, t, r, rosa.NewChecker())
				}
			}
			return d, nil
		}}
	}
	return &bench{
		clients: 1,
		loop:    "1 client, sequential passes over the 7 programs in Table II order",
		pass:    func(*rand.Rand) []op { return ops },
	}
}

// replayAnalysis reruns one analysis through the layers' public functions
// in core.AnalyzeContext's order — AutoPriv (timed on its own; measurement
// repeats it internally), the ChronoPriv measurement, then each query's
// attacks.Build and Checker.Run — with a span around each call, and checks
// the replay against the reference too.
func replayAnalysis(ctx context.Context, t *opTrace, r *progRef, checker *rosa.Checker) error {
	root := t.start(nil, "direct")
	defer root.end()
	sp := t.start(root, "autopriv.analyze")
	_, err := autopriv.Analyze(r.prog.Module, autopriv.Options{})
	sp.end()
	if err != nil {
		return fmt.Errorf("autopriv %s: %w", r.prog.Name, err)
	}
	sp = t.start(root, "programs.measure")
	rep, _, err := r.prog.MeasureContext(ctx)
	if err == nil {
		sp.add("instructions", rep.Total)
	}
	sp.end()
	if err != nil {
		return err
	}
	if rep.Total != r.total {
		return fmt.Errorf("%s: measured %d instructions, reference %d", r.prog.Name, rep.Total, r.total)
	}
	inventory := r.prog.Syscalls()
	for _, c := range r.cells {
		sp := t.start(root, "attacks.build")
		q := c.build(inventory)
		sp.end()
		res, _, err := runQuery(ctx, t, root, checker, q)
		if err != nil {
			return err
		}
		if err := c.checkQuery(api.FromResult(int(c.attack), res, false)); err != nil {
			return err
		}
	}
	return nil
}

// runQuery times one Checker.Run under a "rosa.query" span that carries
// the query's counts from the versioned wire stats.
func runQuery(ctx context.Context, t *opTrace, parent *span, checker *rosa.Checker, q *rosa.Query) (*rosa.Result, time.Duration, error) {
	sp := t.start(parent, "rosa.query")
	start := time.Now()
	res, err := checker.Run(ctx, q)
	d := time.Since(start)
	if err == nil && sp != nil {
		sp.add("states", int64(res.StatesExplored))
		if st := api.FromSearchStats(res.Stats); st != nil {
			sp.add("cache_hits", st.CacheHits)
			sp.add("cache_misses", st.CacheMisses)
			sp.add("compiled_matches", st.CompiledMatches)
			sp.add("fallback_matches", st.FallbackMatches)
		}
	}
	sp.end()
	return res, d, err
}

// rosaGrid: each pass runs the 140 queries, built once here, on a fresh
// checker per program — the transition cache is shared only within one
// program, as in an analysis. The seed orders the programs within a pass;
// each program's queries keep core's phase-major, attack-minor order.
func rosaGrid(refs []*progRef) *bench {
	type built struct {
		cell  *cell
		query *rosa.Query
	}
	grid := make([][]built, len(refs))
	for i, r := range refs {
		inventory := r.prog.Syscalls()
		for _, c := range r.cells {
			grid[i] = append(grid[i], built{c, c.build(inventory)})
		}
	}
	return &bench{
		clients: 1,
		loop:    "1 client, sequential passes over the 140 grid queries, program order seeded per pass",
		pass: func(rng *rand.Rand) []op {
			var ops []op
			for _, i := range rng.Perm(len(grid)) {
				checker := rosa.NewChecker()
				for _, g := range grid[i] {
					g := g
					ops = append(ops, op{class: g.cell.prog.Name, do: func(ctx context.Context, t *opTrace) (time.Duration, error) {
						sp := t.start(nil, "op")
						res, d, err := runQuery(ctx, t, sp, checker, g.query)
						sp.end()
						if err != nil {
							return d, err
						}
						if err := g.cell.checkQuery(api.FromResult(int(g.cell.attack), res, false)); err != nil {
							return d, err
						}
						if t != nil {
							t.replay = func(context.Context) error {
								root := t.start(nil, "direct")
								b := t.start(root, "attacks.build")
								g.cell.build(g.cell.prog.Syscalls())
								b.end()
								root.end()
								return nil
							}
						}
						return d, nil
					}})
				}
			}
			return ops
		},
	}
}

// serveWarm: a closed loop of nproc clients (at most 2) calling the
// in-process server's handler — no sockets. Each pass is a seeded shuffle
// of one analyze request per program and one query request per grid cell:
// 7 analyses among 147 requests by count, most of the time by wall clock.
func serveWarm(refs []*progRef) (*bench, error) {
	srv := server.New(server.Config{})
	h := srv.Handler()
	// The replay's own warm checkers: one per program for analyses, one
	// shared by the ad-hoc queries, as the server keeps them.
	adhoc := rosa.NewChecker()
	var ops []op
	for _, r := range refs {
		r := r
		body, err := json.Marshal(api.AnalyzeRequest{Program: r.prog.Name})
		if err != nil {
			srv.Close()
			return nil, err
		}
		warm := rosa.NewChecker()
		ops = append(ops, op{class: "analyze/" + r.prog.Name, do: func(ctx context.Context, t *opTrace) (time.Duration, error) {
			var resp api.AnalyzeResponse
			d, err := serveOne(ctx, t, h, "/v1/analyze", body, &resp)
			if err != nil {
				return d, err
			}
			if err := r.checkAnalysis(&resp); err != nil {
				return d, err
			}
			if t != nil {
				t.replay = func(ctx context.Context) error {
					root := t.start(nil, "direct")
					defer root.end()
					sp := t.start(root, "core.analyze")
					a, err := core.AnalyzeContext(ctx, r.prog, core.Options{Checker: warm})
					sp.end()
					if err != nil {
						return err
					}
					sp = t.start(root, "api.encode")
					wire := api.FromAnalysis(a, false)
					if err := encodeAndEnd(sp, wire); err != nil {
						return err
					}
					return r.checkAnalysis(wire)
				}
			}
			return d, nil
		}})
		inventory := r.prog.Syscalls()
		for _, c := range r.cells {
			c := c
			body, err := json.Marshal(api.QueryRequest{
				Attack:   int(c.attack),
				Privs:    c.privs.String(),
				UID:      fmt.Sprintf("%d,%d,%d", c.creds.RUID, c.creds.EUID, c.creds.SUID),
				GID:      fmt.Sprintf("%d,%d,%d", c.creds.RGID, c.creds.EGID, c.creds.SGID),
				Syscalls: inventory,
			})
			if err != nil {
				srv.Close()
				return nil, err
			}
			ops = append(ops, op{class: "query", do: func(ctx context.Context, t *opTrace) (time.Duration, error) {
				var resp api.QueryResponse
				d, err := serveOne(ctx, t, h, "/v1/query", body, &resp)
				if err != nil {
					return d, err
				}
				if err := c.checkQuery(resp.Result); err != nil {
					return d, err
				}
				if t != nil {
					t.replay = func(ctx context.Context) error {
						root := t.start(nil, "direct")
						defer root.end()
						sp := t.start(root, "attacks.build")
						q := c.build(inventory)
						sp.end()
						res, _, err := runQuery(ctx, t, root, adhoc, q)
						if err != nil {
							return err
						}
						sp = t.start(root, "api.encode")
						wire := api.QueryResponse{APIVersion: api.Version, Description: c.attack.Description(),
							Result: api.FromResult(int(c.attack), res, false)}
						if err := encodeAndEnd(sp, wire); err != nil {
							return err
						}
						return c.checkQuery(wire.Result)
					}
				}
				return d, nil
			}})
		}
	}
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	return &bench{
		clients: clients,
		loop:    fmt.Sprintf("closed loop, %d clients, in-process handler, seeded shuffle of 7 analyze + 140 query requests per pass", clients),
		srv:     srv,
		pass: func(rng *rand.Rand) []op {
			pass := append([]op(nil), ops...)
			rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
			return pass
		},
	}, nil
}

// encodeAndEnd renders a wire response as the server does, records the
// body size on sp, and ends sp. The caller starts sp before converting to
// wire form, so the "api.encode" span covers conversion and encoding.
func encodeAndEnd(sp *span, v any) error {
	var buf bytes.Buffer
	err := api.Encode(&buf, v)
	sp.add("bytes", int64(buf.Len()))
	sp.end()
	return err
}

// serveOne sends one request through the handler, times ServeHTTP alone,
// and decodes a 200 response into into.
func serveOne(ctx context.Context, t *opTrace, h http.Handler, path string, body []byte, into any) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	sp := t.start(nil, "op")
	rs := t.start(sp, "server.request")
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	rs.add("bytes", int64(rec.Body.Len()))
	rs.end()
	sp.end()
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("%s: status %d: %s", path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
		return d, fmt.Errorf("%s: decode response: %w", path, err)
	}
	return d, nil
}
