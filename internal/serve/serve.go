// Package serve is the production core of charnetd, the measurement-
// serving daemon: an HTTP/JSON service over the cancellable, cached,
// observable pipeline (experiments.Lab → core.MeasureSuite).
//
// Endpoints (all JSON payloads reuse the internal/artifact renderers, so
// a body is byte-identical to `charnet -format json` for the same
// inputs):
//
//	GET  /v1/drivers         the driver registry as JSON
//	GET  /v1/drivers/{name}  run one registered driver; body is the
//	                         artifact array `charnet -format json name`
//	                         prints
//	GET  /v1/suites          the suite registry as JSON: every suite a
//	                         measure request accepts, built-in and
//	                         spec-loaded external alike
//	POST /v1/measure         measure a suite (optionally a workload
//	                         subset) on a machine; body is an artifact
//	                         array with the measured metric vectors.
//	                         Unknown suite, machine or workload names are
//	                         client errors: 400 with a JSON error body; a
//	                         body over the size limit (measureBodyLimit)
//	                         is 413
//
// Appending ?stream=jsonl to a driver or measure request switches the
// response to a JSONL progress stream: one {"event":...} object per
// admission-state transition, then a final {"event":"result"} line
// carrying the same artifact array (or {"event":"error"}).
//
// The telemetry plane (/metrics, /healthz, /infoz, expvar, pprof —
// internal/telemetry) is folded onto the same handler, so one listener
// serves both traffic and its own observability.
//
// Production behavior:
//
//   - Bounded admission: requests enter a fixed-depth queue drained by a
//     fixed worker pool. A full queue sheds with 503 + Retry-After
//     instead of queueing unboundedly.
//   - Token-bucket rate limiting ahead of the queue: an exhausted bucket
//     sheds with 429 + Retry-After sized to the refill deficit.
//   - Per-request cancellation: the request context flows into
//     core.MeasureSuite, so a client disconnect aborts server-side
//     simulation within one workload's sim time and never tears a
//     measurement-store write.
//   - Request coalescing: concurrent identical measurements collapse
//     through the Lab's singleflight and shared mstore; all callers get
//     identical bytes from one underlying simulation, and an unfiltered
//     body is rendered once per Lab (Lab.MeasureJSON).
//   - Graceful drain: Close stops admitting (503), lets queued and
//     running work complete, then joins the worker pool.
//
// Everything is instrumented through internal/obs: serve.queue.wait and
// serve.request.latency histograms, the serve.queue.depth gauge, and
// per-endpoint/per-status counters, all visible on /metrics.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Config sets the serving envelope.
type Config struct {
	// Workers is the number of concurrent request executions (each may
	// fan out further through the Lab's measurement pool). Default 2.
	Workers int
	// QueueDepth bounds the admission queue: requests admitted but not
	// yet started. A full queue sheds new work with 503. Default 64.
	QueueDepth int
	// RatePerSec refills the admission token bucket; 0 disables rate
	// limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity (default: RatePerSec rounded
	// up, minimum 1) — only meaningful with RatePerSec > 0.
	Burst int
	// Info labels the run on /metrics and /infoz.
	Info telemetry.Info
}

// withDefaults resolves zero fields to the documented defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Burst <= 0 {
		c.Burst = int(c.RatePerSec) + 1
	}
	return c
}

// retryAfter is the Retry-After hint attached to queue-full and draining
// shed responses.
const retryAfter = time.Second

// Server is the measurement-serving daemon core. Create with New, serve
// it as an http.Handler, and Close it to drain.
type Server struct {
	lab    *experiments.Lab
	tr     *obs.Trace
	cfg    Config
	mux    *http.ServeMux
	bucket *tokenBucket
	root   *obs.Span // parent span of all request spans

	// maxMeasureBody bounds a POST /v1/measure body (measureBodyLimit).
	maxMeasureBody int64

	queue   chan func(lane int)
	workers sync.WaitGroup // the worker pool
	admits  sync.WaitGroup // admissions between depth-check and enqueue

	mu       sync.Mutex
	draining bool // Close has begun: shed new work
	closed   bool // queue channel closed
	queued   int  // admitted but not yet started
}

// New builds a Server over the Lab. The trace carries every serve.*
// metric and the serving clock; when nil a fresh enabled trace is
// created. Pass the same trace as lab.Obs so request handling and the
// measurement pipeline land in one metrics registry.
func New(lab *experiments.Lab, tr *obs.Trace, cfg Config) *Server {
	if tr == nil {
		tr = obs.New()
	}
	cfg = cfg.withDefaults()
	s := &Server{
		lab:            lab,
		tr:             tr,
		cfg:            cfg,
		maxMeasureBody: measureBodyLimit(lab),
		queue:          make(chan func(lane int), cfg.QueueDepth),
		root:           tr.Span("serve", ""),
	}
	if cfg.RatePerSec > 0 {
		s.bucket = newTokenBucket(cfg.RatePerSec, cfg.Burst, tr.Now())
	}
	s.tr.Gauge("serve.queue.depth", 0)
	s.tr.Gauge("serve.workers", float64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go func(lane int) {
			defer s.workers.Done()
			for run := range s.queue {
				run(lane)
			}
		}(i + 1)
	}
	s.mux = telemetry.NewMux(tr, cfg.Info)
	s.mux.HandleFunc("GET /v1/drivers", s.instrument("drivers", s.handleDrivers))
	s.mux.HandleFunc("GET /v1/drivers/{name}", s.instrument("driver", s.handleDriver))
	s.mux.HandleFunc("GET /v1/suites", s.instrument("suites", s.handleSuites))
	s.mux.HandleFunc("POST /v1/measure", s.instrument("measure", s.handleMeasure))
	// Wrong-method hits on the API prefix get explicit 405s rather than
	// the mux's default 404, so clients can tell typo from misuse.
	s.mux.HandleFunc("/v1/drivers", s.methodNotAllowed)
	s.mux.HandleFunc("/v1/drivers/{name}", s.methodNotAllowed)
	s.mux.HandleFunc("/v1/suites", s.methodNotAllowed)
	s.mux.HandleFunc("/v1/measure", s.methodNotAllowed)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close drains the server: new admissions shed with 503, queued and
// in-flight work runs to completion, then the worker pool joins. Safe to
// call more than once. The HTTP listener should be shut down first
// (http.Server.Shutdown) so handlers waiting on results have returned.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Admissions that passed the depth check before draining flipped may
	// still be between check and enqueue; wait them out before closing
	// the channel so no send can hit a closed queue.
	s.admits.Wait()
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if !already {
		close(s.queue)
	}
	s.workers.Wait()
	s.root.End()
}

// shedError is a load-shedding rejection: an HTTP status plus the
// Retry-After hint.
type shedError struct {
	status     int
	retryAfter time.Duration
	reason     string
}

func (e *shedError) Error() string { return e.reason }

// retryAfterSeconds renders the hint for the Retry-After header:
// whole seconds, rounded up, at least 1.
func (e *shedError) retryAfterSeconds() int {
	s := int((e.retryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// statusError carries a client-error status through the handler plumbing.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// result is one task's outcome, delivered to the waiting handler.
type result struct {
	body []byte
	err  error
}

// ticket is a handler's handle on an admitted task.
type ticket struct {
	started chan struct{} // closed when a worker picks the task up
	done    chan result   // buffered; receives exactly one result
	depth   int           // queue depth right after this admission
}

// enqueue admits one execution into the bounded queue, shedding when the
// rate limiter, the queue bound, or draining says no. The returned
// ticket's done channel always receives exactly one result once a worker
// runs the task; the task observes ctx, so an abandoned ticket costs at
// most a context-error result.
func (s *Server) enqueue(ctx context.Context, f func(ctx context.Context, lane int) ([]byte, error)) (*ticket, error) {
	if s.bucket != nil {
		if ok, wait := s.bucket.allow(s.tr.Now()); !ok {
			s.tr.Add("serve.shed.ratelimit", 1)
			return nil, &shedError{status: http.StatusTooManyRequests, retryAfter: wait,
				reason: "rate limit exceeded"}
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.tr.Add("serve.shed.draining", 1)
		return nil, &shedError{status: http.StatusServiceUnavailable, retryAfter: retryAfter,
			reason: "server is draining"}
	}
	if s.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.tr.Add("serve.shed.queue", 1)
		return nil, &shedError{status: http.StatusServiceUnavailable, retryAfter: retryAfter,
			reason: "admission queue is full"}
	}
	s.queued++
	depth := s.queued
	s.admits.Add(1)
	s.mu.Unlock()
	s.tr.Gauge("serve.queue.depth", float64(depth))
	s.tr.Add("serve.tasks.admitted", 1)

	t := &ticket{started: make(chan struct{}), done: make(chan result, 1), depth: depth}
	enq := s.tr.Now()
	run := func(lane int) {
		s.mu.Lock()
		s.queued--
		q := s.queued
		s.mu.Unlock()
		s.tr.Gauge("serve.queue.depth", float64(q))
		s.tr.Observe("serve.queue.wait", s.tr.Now().Sub(enq))
		s.tr.Add("serve.tasks.started", 1)
		close(t.started)
		var r result
		if err := ctx.Err(); err != nil {
			// The client vanished while the task sat queued: skip the
			// work entirely rather than simulating for nobody.
			s.tr.Add("serve.tasks.abandoned", 1)
			r = result{err: err}
		} else {
			b, err := f(ctx, lane)
			r = result{body: b, err: err}
		}
		s.tr.Add("serve.tasks.done", 1)
		t.done <- r
	}
	// The depth check above bounds outstanding sends to QueueDepth, the
	// channel's capacity, so this send never blocks.
	s.queue <- run
	s.admits.Done()
	return t, nil
}

// execute admits f and waits for its result or the client's departure.
func (s *Server) execute(ctx context.Context, f func(ctx context.Context, lane int) ([]byte, error)) ([]byte, error) {
	t, err := s.enqueue(ctx, f)
	if err != nil {
		return nil, err
	}
	select {
	case r := <-t.done:
		return r.body, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// instrument wraps a handler with the per-endpoint request counter and
// the request-latency histograms (aggregate and per endpoint).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.tr.Add("serve.requests."+endpoint, 1)
		start := s.tr.Now()
		h(w, r)
		d := s.tr.Now().Sub(start)
		s.tr.Observe("serve.request.latency", d)
		s.tr.Observe("serve.request.latency."+endpoint, d)
	}
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request) {
	s.respondError(w, &statusError{http.StatusMethodNotAllowed,
		fmt.Sprintf("method %s not allowed on %s", r.Method, r.URL.Path)})
}

// respondJSON writes a JSON body, counting the status.
func (s *Server) respondJSON(w http.ResponseWriter, status int, body []byte) {
	s.tr.Add(fmt.Sprintf("serve.status.%d", status), 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		return // client went away; nothing to do
	}
}

// respondError maps an execution error to its HTTP form: shed errors get
// their status + Retry-After, client errors their status, a cancelled
// request 499 (the de-facto client-closed-request code), everything else
// 500.
func (s *Server) respondError(w http.ResponseWriter, err error) {
	var shed *shedError
	var badReq *statusError
	status := http.StatusInternalServerError
	switch {
	case errors.As(err, &shed):
		status = shed.status
		w.Header().Set("Retry-After", strconv.Itoa(shed.retryAfterSeconds()))
	case errors.As(err, &badReq):
		status = badReq.status
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		status = 499
	}
	s.tr.Add(fmt.Sprintf("serve.status.%d", status), 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	//charnet:ignore errdiscard best-effort error body; the status code already carries the outcome
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// driverListing is one registry row of GET /v1/drivers.
type driverListing struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	Paper string `json:"paper"`
}

// handleDrivers lists the registry. The listing is static and cheap, so
// it bypasses the admission queue: shedding a roster read would only
// hide capacity problems from the operator.
func (s *Server) handleDrivers(w http.ResponseWriter, r *http.Request) {
	ds := experiments.Drivers()
	listing := make([]driverListing, len(ds))
	for i, d := range ds {
		listing[i] = driverListing{Name: d.Name, Title: d.Title, Paper: d.Paper}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Drivers []driverListing `json:"drivers"`
	}{listing}); err != nil {
		s.respondError(w, err)
		return
	}
	s.respondJSON(w, http.StatusOK, buf.Bytes())
}

// handleDriver runs one registered driver through the admission queue and
// returns the artifact array exactly as `charnet -format json <name>`
// renders it.
func (s *Server) handleDriver(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	d, ok := experiments.DriverByName(name)
	if !ok {
		s.respondError(w, &statusError{http.StatusNotFound, fmt.Sprintf("unknown driver %q", name)})
		return
	}
	f := func(ctx context.Context, lane int) ([]byte, error) {
		span := s.root.ChildLane(lane, "driver", d.Name)
		res, err := d.Run(ctx, s.lab)
		span.End()
		if err != nil {
			return nil, err
		}
		return renderArtifacts(res.Artifact())
	}
	s.finish(w, r, f)
}

// suiteListing is one registry row of GET /v1/suites.
type suiteListing struct {
	Name        string `json:"name"`  // wire name: what /v1/measure accepts
	Suite       string `json:"suite"` // display name (feeds workload seeds)
	Description string `json:"description,omitempty"`
	Workloads   int    `json:"workloads"`
	Builtin     bool   `json:"builtin"`
}

// handleSuites lists the Lab's suite registry — the values a measure
// request's "suite" field accepts, including suites loaded from
// -suite-spec files at daemon start. Like the driver roster, the listing
// is static and cheap, so it bypasses the admission queue.
func (s *Server) handleSuites(w http.ResponseWriter, r *http.Request) {
	defs := s.lab.Suites()
	listing := make([]suiteListing, len(defs))
	for i, def := range defs {
		listing[i] = suiteListing{
			Name:        def.Wire,
			Suite:       def.Suite.String(),
			Description: def.Description,
			Workloads:   def.Len(),
			Builtin:     def.Builtin,
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(struct {
		Suites []suiteListing `json:"suites"`
	}{listing}); err != nil {
		s.respondError(w, err)
		return
	}
	s.respondJSON(w, http.StatusOK, buf.Bytes())
}

// measureRequest is the POST /v1/measure body.
type measureRequest struct {
	// Suite is a wire name from the Lab's suite registry (required);
	// GET /v1/suites lists the accepted values.
	Suite string `json:"suite"`
	// Machine is a Table II machine name (machine.All); empty selects
	// the Core i9, the paper's primary machine.
	Machine string `json:"machine,omitempty"`
	// Workloads optionally restricts the response to named workloads
	// (measurement still covers the whole suite so the cache and the
	// singleflight stay maximally shared).
	Workloads []string `json:"workloads,omitempty"`
}

// measureCall is an accepted POST /v1/measure request: its suite and
// machine resolved, and its optional workload filter, every name of
// which the suite's catalog holds.
type measureCall struct {
	def       *workload.SuiteDef
	m         *machine.Config
	workloads []string
}

// decodeMeasure reads a POST /v1/measure body through the body limit,
// decodes it (unknown fields are errors) and resolves its suite,
// workloads and machine. Every rejection is a *statusError: 413 for a
// body over the limit, 400 for anything else. w may be nil; when set, an
// over-limit read tells it to close the connection.
func (s *Server) decodeMeasure(w http.ResponseWriter, body io.ReadCloser) (measureCall, error) {
	var req measureRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, body, s.maxMeasureBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return measureCall{}, &statusError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
		}
		return measureCall{}, &statusError{http.StatusBadRequest, fmt.Sprintf("malformed request body: %v", err)}
	}
	def, ok := s.lab.Suite(req.Suite)
	if !ok {
		return measureCall{}, &statusError{http.StatusBadRequest,
			fmt.Sprintf("unknown suite %q (want one of %v)", req.Suite, s.lab.SuiteNames())}
	}
	if unknown := unknownWorkloads(def, req.Workloads); len(unknown) > 0 {
		return measureCall{}, &statusError{http.StatusBadRequest,
			fmt.Sprintf("unknown workloads %q in suite %q", unknown, req.Suite)}
	}
	m, err := machineByName(req.Machine)
	if err != nil {
		return measureCall{}, &statusError{http.StatusBadRequest, err.Error()}
	}
	return measureCall{def: def, m: m, workloads: req.Workloads}, nil
}

// handleMeasure measures a suite through the admission queue and renders
// the measured metric vectors as an artifact array. An unfiltered
// request's body is the Lab's once-rendered MeasureJSON, and a streamed
// one ends with the Lab's once-built MeasureResultLine; a filtered
// request, whose key space is unbounded, renders its rows per request.
func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	call, err := s.decodeMeasure(w, r.Body)
	if err != nil {
		s.respondError(w, err)
		return
	}
	if len(call.workloads) == 0 && r.URL.Query().Get("stream") == "jsonl" {
		s.finishStream(w, r, func(ctx context.Context, lane int) ([]byte, error) {
			defer s.root.ChildLane(lane, "measure-request", call.def.Wire).End()
			return s.lab.MeasureResultLine(ctx, call.def, call.m)
		})
		return
	}
	f := func(ctx context.Context, lane int) ([]byte, error) {
		span := s.root.ChildLane(lane, "measure-request", call.def.Wire)
		defer span.End()
		if len(call.workloads) == 0 {
			return s.lab.MeasureJSON(ctx, call.def, call.m)
		}
		ms, err := s.lab.MeasureSuite(ctx, call.def, call.m)
		if err != nil {
			return nil, err
		}
		ms = experiments.FilterMeasurements(ms, call.workloads)
		if len(ms) == 0 {
			// Only reachable for sampled suites: the names exist in the
			// catalog but fell outside the deterministic sample.
			return nil, &statusError{http.StatusNotFound,
				fmt.Sprintf("no requested workload was sampled in suite %q", call.def.Wire)}
		}
		return renderArtifacts(experiments.MeasureArtifact(call.def.Wire, call.m, ms))
	}
	s.finish(w, r, f)
}

// measureBodyLimit is the most of a POST /v1/measure body the server
// reads: twice the size of a request that names every workload of the
// Lab's largest suite on the longest machine name, plus 4 KiB, which
// leaves room for whitespace. A longer body is refused with 413. The
// request's size is counted name by name, as json.Marshal would write
// {"suite":S,"machine":M,"workloads":[W1,...,Wn]}.
func measureBodyLimit(lab *experiments.Lab) int64 {
	longest := ""
	for _, m := range machine.All() {
		if len(m.Name) > len(longest) {
			longest = m.Name
		}
	}
	size := 0
	for _, def := range lab.Suites() {
		// Every suite has a workload, so the names need Len()-1 commas.
		n := len(`{"suite":,"machine":,"workloads":[]}`) + jsonLen(def.Wire) + jsonLen(longest) + def.Len() - 1
		for i := 0; i < def.Len(); i++ {
			n += jsonLen(def.Name(i))
		}
		size = max(size, n)
	}
	return int64(2*size + 4<<10)
}

// jsonLen is the length of json.Marshal(s): s and its two quotes when
// no byte needs escaping, otherwise the marshalled length.
func jsonLen(s string) int {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			//charnet:ignore errdiscard a string always marshals
			b, _ := json.Marshal(s)
			return len(b)
		}
	}
	return len(s) + 2
}

// jsonPlain marks the bytes json.Marshal copies into a string as they
// are: printable ASCII other than the quote, the backslash and the
// HTML-significant <, > and &.
var jsonPlain = func() (plain [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		plain[c] = true
	}
	for _, c := range `"\<>&` {
		plain[c] = false
	}
	return plain
}()

// unknownWorkloads returns the requested names the suite's catalog does
// not contain, preserving request order. Validating before admission
// turns a typo into an immediate 400 instead of a post-measurement 404.
func unknownWorkloads(def *workload.SuiteDef, names []string) []string {
	var unknown []string
	for _, n := range names {
		if _, ok := def.Lookup(n); !ok {
			unknown = append(unknown, n)
		}
	}
	return unknown
}

// finish routes an execution to the plain or streaming response path.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, f func(ctx context.Context, lane int) ([]byte, error)) {
	if r.URL.Query().Get("stream") == "jsonl" {
		s.finishStream(w, r, func(ctx context.Context, lane int) ([]byte, error) {
			body, err := f(ctx, lane)
			if err != nil {
				return nil, err
			}
			var line bytes.Buffer
			if err := json.NewEncoder(&line).Encode(streamEvent{Event: "result", Artifacts: body}); err != nil {
				return nil, err
			}
			return line.Bytes(), nil
		})
		return
	}
	body, err := s.execute(r.Context(), f)
	if err != nil {
		s.respondError(w, err)
		return
	}
	s.respondJSON(w, http.StatusOK, body)
}

// streamEvent is one line of a ?stream=jsonl response.
type streamEvent struct {
	Event     string          `json:"event"`               // queued | running | result | error
	Depth     int             `json:"depth,omitempty"`     // queued: queue depth at admission
	Error     string          `json:"error,omitempty"`     // error: what failed
	Artifacts json.RawMessage `json:"artifacts,omitempty"` // result: the artifact array
}

// finishStream streams admission progress as JSONL and ends with the
// result line f returns (or an error line). Shedding still uses real HTTP
// status codes — the stream only begins once the request is admitted.
func (s *Server) finishStream(w http.ResponseWriter, r *http.Request, f func(ctx context.Context, lane int) ([]byte, error)) {
	ctx := r.Context()
	t, err := s.enqueue(ctx, f)
	if err != nil {
		s.respondError(w, err)
		return
	}
	s.tr.Add("serve.status.200", 1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	send := func(line []byte) {
		//charnet:ignore errdiscard a failed stream write means the client left; the select below exits on ctx
		w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit := func(e streamEvent) {
		var line bytes.Buffer
		//charnet:ignore errdiscard a stream event holds no value encoding/json rejects
		json.NewEncoder(&line).Encode(e)
		send(line.Bytes())
	}
	emit(streamEvent{Event: "queued", Depth: t.depth})
	for {
		select {
		case <-t.started:
			emit(streamEvent{Event: "running"})
			t.started = nil // receive once; nil channel blocks forever
		case res := <-t.done:
			if t.started != nil {
				// The task raced start and finish ahead of our reads:
				// keep the event order queued → running → result.
				emit(streamEvent{Event: "running"})
			}
			if res.err != nil {
				emit(streamEvent{Event: "error", Error: res.err.Error()})
				return
			}
			send(res.body)
			return
		case <-ctx.Done():
			return
		}
	}
}

// renderArtifacts renders artifacts exactly as cmd/charnet's -format
// json path does: one indented JSON array via artifact.WriteJSON.
func renderArtifacts(arts ...*artifact.Artifact) ([]byte, error) {
	var buf bytes.Buffer
	if err := artifact.WriteJSON(&buf, arts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// machineByName resolves a Table II machine by its exact name, accepting
// the empty string as the Core i9 (the paper's primary machine).
func machineByName(name string) (*machine.Config, error) {
	if name == "" {
		return machine.CoreI9(), nil
	}
	var known []string
	for _, m := range machine.All() {
		if m.Name == name {
			return m, nil
		}
		known = append(known, m.Name)
	}
	return nil, fmt.Errorf("unknown machine %q (want one of %q)", name, strings.Join(known, `", "`))
}
