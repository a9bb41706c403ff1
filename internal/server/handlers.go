package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"privanalyzer/internal/api"
	"privanalyzer/internal/cmdutil"
	"privanalyzer/internal/core"
	"privanalyzer/internal/obs"
	"privanalyzer/internal/programs"
	"privanalyzer/internal/telemetry"
)

// maxBodyBytes bounds request bodies; program names and query files are
// small, so anything larger is a client error.
const maxBodyBytes = 1 << 20

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/query", s.instrument("query", s.handleQuery))
	mux.HandleFunc("GET /v1/programs", s.instrument("programs", s.handlePrograms))
	mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	mux.HandleFunc("POST /v1/jobs", s.instrument("jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("job_status", s.handleJobStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.instrument("job_events", s.handleJobEvents))
	mux.HandleFunc("GET /v1/slowlog", s.instrument("slowlog", s.handleSlowLog))
	mux.HandleFunc("GET /v1/metrics.json", s.instrument("metrics_json", s.handleMetricsJSON))
	RegisterDiagnostics(mux, s.reg, s.ReadyDetail)
	return mux
}

// writeJSON writes v through api.Encode — the CLI's encoder — so server
// bytes and CLI bytes for equal values are identical.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := api.Encode(w, v); err != nil {
		s.log.Warn("response write failed", "component", "server", "error", err)
	}
}

// writeError writes the uniform error envelope.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.writeErrorDetail(w, status, api.ErrorDetail{Code: code, Message: msg})
}

// writeErrorDetail writes the uniform versioned error envelope from a
// prebuilt detail, mirroring any retry hint onto the Retry-After header
// (whole seconds, rounded up) for clients that speak plain HTTP rather than
// the JSON body's millisecond-precision retry_after_ms.
func (s *Server) writeErrorDetail(w http.ResponseWriter, status int, det api.ErrorDetail) {
	s.reg.Counter("server_errors_total").Add(1)
	if det.RetryAfterMS > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((det.RetryAfterMS+999)/1000, 10))
	}
	s.writeJSON(w, status, api.ErrorV1{APIVersion: api.Version, Error: det})
}

// decode strictly unmarshals the request body into v: unknown fields are
// schema violations, not noise to ignore — the wire types are versioned.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// errorDetailForRun maps an execution failure to its HTTP status and wire
// detail — shared by the synchronous response path and the job outcome. The
// mapping is the stable part of the error contract: one code per failure
// class, pinned by the envelope golden test.
func (s *Server) errorDetailForRun(err error) (int, api.ErrorDetail) {
	var rej *RejectError
	switch {
	case errors.As(err, &rej):
		return rej.Status, api.ErrorDetail{
			Code: rej.Code, Message: rej.Message,
			RetryAfterMS: rej.RetryAfter.Milliseconds(),
		}
	case errors.Is(err, ErrShutdown), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable,
			api.ErrorDetail{Code: api.CodeShutdown, Message: err.Error()}
	case errors.Is(err, ErrSaturated):
		return http.StatusServiceUnavailable, api.ErrorDetail{
			Code: api.CodeQueueFull, Message: err.Error(),
			RetryAfterMS: s.retryAfter().Milliseconds(),
		}
	case errors.Is(err, context.DeadlineExceeded):
		// The deadline expired while the request was still queued; work
		// already running resolves through the engine's ⏱ path instead.
		return http.StatusGatewayTimeout, api.ErrorDetail{
			Code: api.CodeDeadlineExceeded, Message: "deadline expired before the request ran",
		}
	case errors.Is(err, context.Canceled):
		// The client went away while the work was queued (or the drain
		// window closed under a job); the envelope is best-effort.
		return http.StatusServiceUnavailable,
			api.ErrorDetail{Code: api.CodeCanceled, Message: "request cancelled before execution"}
	default:
		return http.StatusInternalServerError,
			api.ErrorDetail{Code: api.CodeInternal, Message: err.Error()}
	}
}

// runError maps a run() failure to its HTTP response.
func (s *Server) runError(w http.ResponseWriter, err error) {
	status, det := s.errorDetailForRun(err)
	s.writeErrorDetail(w, status, det)
}

// requestError is a pre-admission validation failure: status + envelope.
type requestError struct {
	status int
	code   string
	msg    string
}

func badRequest(err error) *requestError {
	return &requestError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: err.Error()}
}

// prepared is an admitted request, validated and bound to its checker,
// ready to run on a pool worker. The synchronous endpoints and the async
// jobs subsystem both execute through prepared.run — the one code path from
// request to response value — which is what makes a job's terminal result
// frame byte-identical to the synchronous endpoint's body. The observer
// (nil on the sync path) adds recording and progress streaming without
// touching search semantics.
type prepared struct {
	kind     string // "analyze" or "query"
	priority int
	timeout  time.Duration
	// deadline is the request's total budget measured from admission —
	// queue wait counts against it, unlike timeout, which starts at worker
	// pickup. Clamped by Config.MaxDeadline; 0 = none.
	deadline time.Duration
	run      func(ctx context.Context, watch *jobObserver) (any, error)
}

// effectiveDeadline clamps the request's deadline_ms to the server cap:
// asking for more than -max-deadline (or for nothing, when a cap is set)
// yields the cap.
func (s *Server) effectiveDeadline(p api.SearchParams) time.Duration {
	d := time.Duration(p.DeadlineMS) * time.Millisecond
	if s.cfg.MaxDeadline > 0 && (d <= 0 || d > s.cfg.MaxDeadline) {
		d = s.cfg.MaxDeadline
	}
	if d < 0 {
		d = 0
	}
	return d
}

// prepareAnalyze validates an analyze request and binds it to the program's
// LRU-resident entry. It builds nothing: the program and its measurement
// are built on the pool worker, inside run, the first time the entry is
// used, so that work is admitted and metered like any other.
func (s *Server) prepareAnalyze(req api.AnalyzeRequest) (*prepared, *requestError) {
	if req.Program == "" {
		return nil, &requestError{status: http.StatusBadRequest, code: api.CodeBadRequest, msg: "program is required"}
	}
	if !slices.Contains(programs.Names(), req.Program) {
		return nil, &requestError{status: http.StatusNotFound, code: api.CodeNotFound,
			msg: fmt.Sprintf("programs: unknown program %q", req.Program)}
	}
	req.Search = req.Search.OrDefaults(s.cfg.DefaultSearch)
	opts, err := req.CoreOptions()
	if err != nil {
		return nil, badRequest(err)
	}
	ent := s.entries.get(req.Program)
	opts.Checker = ent.checker
	if s.cfg.SearchFaults != nil {
		opts.Search.Faults = s.cfg.SearchFaults
	}
	s.reg.Gauge("server_checkers_resident").Set(int64(s.entries.len()))
	return &prepared{
		kind:     "analyze",
		priority: req.Priority,
		timeout:  req.Search.Timeout.Std(),
		deadline: s.effectiveDeadline(req.Search),
		run: func(ctx context.Context, watch *jobObserver) (any, error) {
			o := opts
			watch.attach(&o.Search)
			// Brownout degrade-search: force the escalation ladder to start
			// low, so each admitted search proves it needs budget before it
			// gets budget. Meaningless without a ladder (no_escalate).
			if s.degradeSearch() && !o.Search.NoEscalate {
				o.Search.Escalate.Start = clampEscalateStart(o.Search.Escalate.Start)
			}
			root, ctx := telemetry.StartSpan(ctx, "analyze", "program", req.Program)
			defer root.End()
			m, measured, err := ent.measurement(ctx)
			if measured {
				root.SetLabel("measurement", "measured")
				s.reg.Counter("server_measure_misses_total").Add(1)
			} else {
				root.SetLabel("measurement", "cached")
				s.reg.Counter("server_measure_hits_total").Add(1)
			}
			if err != nil {
				return nil, err
			}
			a, err := core.Check(ctx, m, o)
			if err != nil {
				return nil, err
			}
			s.recordSlow(ctx, "analyze", req.Program, analysisVerdicts(a), analysisCost(a))
			return api.FromAnalysis(a, req.Search.Stats), nil
		},
	}, nil
}

// prepareQuery validates a standalone query request. Ad-hoc queries share
// one checker per extension flag (held in the LRU under reserved keys no
// program name can collide with), so repeat queries amortize like repeat
// analyses.
func (s *Server) prepareQuery(req api.QueryRequest) (*prepared, *requestError) {
	req.Search = req.Search.OrDefaults(s.cfg.DefaultSearch)
	q, desc, err := req.Build()
	if err != nil {
		return nil, badRequest(err)
	}
	key := "\x00adhoc"
	if q.Extended {
		key = "\x00adhoc-ext"
	}
	checker := s.entries.get(key).checker
	if s.cfg.SearchFaults != nil {
		q.Options.Faults = s.cfg.SearchFaults
	}
	s.reg.Gauge("server_checkers_resident").Set(int64(s.entries.len()))
	return &prepared{
		kind:     "query",
		priority: req.Priority,
		timeout:  req.Search.Timeout.Std(),
		deadline: s.effectiveDeadline(req.Search),
		run: func(ctx context.Context, watch *jobObserver) (any, error) {
			watch.attach(&q.Options)
			if s.degradeSearch() && !q.Options.NoEscalate {
				q.Options.Escalate.Start = clampEscalateStart(q.Options.Escalate.Start)
			}
			res, err := checker.Run(ctx, q)
			if err != nil {
				return nil, err
			}
			if res.Stats != nil {
				s.recordSlow(ctx, "query", desc, res.Verdict.String(), res.Stats.Cost)
			}
			return api.QueryResponse{
				APIVersion:  api.Version,
				Description: desc,
				Result:      api.FromResult(req.Attack, res, req.Search.Stats),
			}, nil
		},
	}, nil
}

// serveSync runs a prepared request through admission and the pool and
// writes the response — the synchronous endpoints' tail. The search context
// derives from r.Context(), so a client disconnect withdraws queued work and
// cancels running work; the request deadline (when set) starts here, at
// admission, so queue wait counts against it and an expired-in-queue request
// is withdrawn without ever running.
func (s *Server) serveSync(w http.ResponseWriter, r *http.Request, p *prepared) {
	ctx := r.Context()
	if p.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.deadline)
		defer cancel()
	}
	var resp any
	err := s.run(ctx, p.kind, p.priority, p.timeout, func(ctx context.Context) error {
		v, err := p.run(ctx, nil)
		resp = v
		return err
	})
	if err != nil {
		s.runError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleAnalyze runs the full pipeline for one modeled program on the
// pool, against the program's LRU-resident entry: its memoized measurement
// and its hot checker.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req api.AnalyzeRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	p, perr := s.prepareAnalyze(req)
	if perr != nil {
		s.writeError(w, perr.status, perr.code, perr.msg)
		return
	}
	s.serveSync(w, r, p)
}

// handleQuery runs one standalone ROSA query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req api.QueryRequest
	if err := decode(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, api.CodeBadRequest, err.Error())
		return
	}
	p, perr := s.prepareQuery(req)
	if perr != nil {
		s.writeError(w, perr.status, perr.code, perr.msg)
		return
	}
	s.serveSync(w, r, p)
}

// analysisCost sums the cost vectors of every query an analysis ran. Nil
// when no query carried one (the request disabled the ledger).
func analysisCost(a *core.Analysis) *obs.QueryCost {
	var total *obs.QueryCost
	for i := range a.Phases {
		for _, st := range a.Phases[i].Stats {
			if st == nil || st.Cost == nil {
				continue
			}
			if total == nil {
				total = &obs.QueryCost{}
			}
			total.Add(st.Cost)
		}
	}
	return total
}

// analysisVerdicts renders an analysis's verdict grid as one glyph string in
// grid order (phases outer, attacks inner) — the slowlog's compact outcome
// summary.
func analysisVerdicts(a *core.Analysis) string {
	var b strings.Builder
	for i := range a.Phases {
		for _, v := range a.Phases[i].Verdicts {
			if v == 0 {
				continue // attack not run
			}
			b.WriteString(v.String())
		}
	}
	return b.String()
}

// handleSlowLog reports the top-K costliest requests since boot, costliest
// first. GET /v1/slowlog[?n=]. The journal is observational: reading it
// never touches the pool, so it stays responsive while the queue is
// saturated — exactly when an operator wants it.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	n := 0
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 1 {
			s.writeError(w, http.StatusBadRequest, api.CodeBadRequest,
				"n must be a positive integer")
			return
		}
		n = parsed
	}
	entries, admitted := s.slow.snapshot(n)
	resp := api.SlowLogResponse{
		APIVersion: api.Version,
		Capacity:   s.slow.capacity,
		Admitted:   admitted,
		Entries:    make([]api.SlowQuery, len(entries)),
	}
	for i, e := range entries {
		resp.Entries[i] = api.SlowQuery{
			Seq:         e.seq,
			Time:        e.time.UTC().Format(time.RFC3339Nano),
			Kind:        e.kind,
			Label:       e.label,
			RequestID:   e.requestID,
			Priority:    e.priority,
			QueueWaitNS: e.queueWaitNS,
			Verdicts:    e.verdicts,
			Cost:        *api.FromQueryCost(&e.cost),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetricsJSON reports the telemetry registry as JSON — the same
// snapshot path the Prometheus text endpoint renders, typed for consumers
// without a Prometheus parser. GET /v1/metrics.json.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	s.reg.SampleProcess()
	snap := s.reg.Snapshot()
	resp := api.MetricsResponse{
		APIVersion: api.Version,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: make(map[string]api.HistogramV1, len(snap.Histograms)),
	}
	for name, h := range snap.Histograms {
		resp.Histograms[name] = api.HistogramV1{
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max,
			Mean: h.Mean, P50: h.P50, P95: h.P95, P99: h.P99,
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleVersion reports the binary's build identity. GET /v1/version.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, api.VersionResponse{
		APIVersion:  api.Version,
		VersionInfo: cmdutil.Version(),
	})
}

// handlePrograms lists the modeled programs /v1/analyze accepts.
func (s *Server) handlePrograms(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, api.ProgramsResponse{
		APIVersion: api.Version,
		Programs:   programs.Names(),
	})
}
