// Command privanalyzerd is the long-lived PrivAnalyzer analysis server: a
// REST+JSON daemon over the same engine the CLIs drive, keeping each
// program's measurement and checker (interner, transition caches) hot
// across requests so repeat analyses skip the interpretation and graph
// expansion a one-shot CLI run throws away.
//
// Usage:
//
//	privanalyzerd                         # serve on 127.0.0.1:7177
//	privanalyzerd -addr :7177             # all interfaces
//	privanalyzerd -concurrency 4 -queue 32
//	privanalyzerd -budget 100000 -escalate 4096:4   # server-side defaults
//	privanalyzerd -timeout 30s            # default per-request wall clock
//
// Endpoints (see API.md for payloads):
//
//	POST /v1/analyze          full pipeline for one modeled program
//	POST /v1/query            one standalone ROSA query
//	POST /v1/jobs             async submission; 202 with a job id
//	GET  /v1/jobs/{id}        job status: queue position, live search stats
//	GET  /v1/jobs/{id}/events live SSE stream (stats, recorder events, result)
//	GET  /v1/programs         the modeled program list
//	GET  /v1/slowlog          the top-K costliest requests since boot
//	GET  /v1/metrics.json     the telemetry registry as typed JSON
//	GET  /v1/version          the binary's build identity
//	GET  /healthz /readyz /metrics /debug/pprof/...
//
// The search knobs (-budget, -workers, -escalate, -mem-budget, -timeout,
// -stats) are the same flags the CLIs take and set server-side defaults;
// each request's search params override them per field. SIGINT/SIGTERM
// drain gracefully: admissions stop (/readyz flips to 503), queued and
// in-flight requests finish within -drain-timeout, then stragglers are
// cancelled. A second signal kills immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"privanalyzer/internal/cmdutil"
	"privanalyzer/internal/server"
	"privanalyzer/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], nil))
}

// run starts the daemon; onListen (tests) receives the bound address.
func run(args []string, onListen func(net.Addr)) int {
	fs := flag.NewFlagSet("privanalyzerd", flag.ContinueOnError)
	var search cmdutil.SearchFlags
	var logf cmdutil.LogFlags
	search.Register(fs)
	logf.Register(fs)
	var (
		addr        = fs.String("addr", "127.0.0.1:7177", "listen address")
		concurrency = fs.Int("concurrency", 0, "requests served at once — the worker-pool size (0 = one per CPU); each request searches sequentially unless -workers asks for more")
		queue       = fs.Int("queue", 0, "pending-request bound; a full queue answers 503 and flips /readyz (0 = 64)")
		checkers    = fs.Int("checkers", 0, "LRU capacity for per-program entries (measurement + checker) and the two ad-hoc query checkers (0 = every program plus both ad-hoc checkers)")
		drain       = fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown window for queued and in-flight requests")
		jobStats    = fs.Duration("job-stats-interval", 0, "throttle async jobs' progress snapshots (SSE stats frames) to this interval (0 = one per completed depth level)")
		slowlog     = fs.Int("slowlog", 0, "slow-query journal capacity: the top-K costliest requests kept for GET /v1/slowlog (0 = 32)")
		maxQueue    = fs.Duration("max-queue", 0, "admission cost budget: estimated wall time of queued+running work the server will hold before answering 429 with retry_after_ms (0 = unbounded)")
		maxDeadline = fs.Duration("max-deadline", 0, "cap on per-request deadline_ms; requests asking for more (or none) get this — queue wait counts against it (0 = no cap)")
		brownoutF   = fs.String("brownout", "off", "brownout thresholds, e.g. q=48,wait=2s,heap=1G[,interval=250ms,hold=4]: shed low-priority work, then degrade escalation ladders, then reject all but high priority (off = disabled)")
	)
	ver := cmdutil.VersionFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ver {
		cmdutil.PrintVersion(os.Stdout, "privanalyzerd")
		return 0
	}
	if search.TraceOut != "" {
		fmt.Fprintln(os.Stderr, "privanalyzerd: -trace-out is a one-shot CLI flag; use /debug/pprof on a running server")
		return 2
	}
	logger, err := logf.Logger()
	if err != nil {
		fmt.Fprintln(os.Stderr, "privanalyzerd:", err)
		return 2
	}
	if logger == nil {
		logger = telemetry.Discard
	}
	// Validate the default search knobs now — a bad -escalate should fail
	// boot, not every future request.
	if _, err := search.ToSearchOptions(); err != nil {
		fmt.Fprintln(os.Stderr, "privanalyzerd:", err)
		return 2
	}
	brownout, err := server.ParseBrownout(*brownoutF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privanalyzerd:", err)
		return 2
	}

	srv := server.New(server.Config{
		Concurrency:      *concurrency,
		QueueDepth:       *queue,
		Checkers:         *checkers,
		DefaultSearch:    search.Params(),
		DrainTimeout:     *drain,
		JobStatsInterval: *jobStats,
		SlowLog:          *slowlog,
		MaxQueueCost:     *maxQueue,
		MaxDeadline:      *maxDeadline,
		Brownout:         brownout,
		Registry:         telemetry.New(),
		Logger:           logger,
	})
	ctx, stopSignals := cmdutil.SignalContext(context.Background())
	defer stopSignals()
	err = srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(os.Stderr, "privanalyzerd: serving http://%s (POST /v1/analyze, POST /v1/query, POST /v1/jobs; /healthz /readyz /metrics /debug/pprof)\n", a)
		if onListen != nil {
			onListen(a)
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "privanalyzerd:", err)
		return 1
	}
	return 0
}
