// Package server implements hped's serving core: the paper's simulator
// exposed as a long-running HTTP/JSON service. The serving triad —
// singleflight request coalescing, a content-addressed LRU result cache,
// and a bounded admission queue with backpressure — turns minutes of
// re-simulation into microsecond cache hits for the (app × policy ×
// oversubscription-rate) grids the related oversubscription-management
// literature sweeps, while context plumbing down to the event loop makes
// client disconnects, per-request timeouts, and graceful shutdown actually
// stop simulation work.
//
// Endpoints:
//
//	POST /v1/runs        submit a run spec (runspec.Spec wire form)
//	GET  /v1/runs        enumerate cached + in-flight run IDs (limit/after)
//	GET  /v1/runs/{id}   result (from cache) or in-flight status
//	POST /v1/suite       whole-matrix sweep through the experiment harness
//	GET  /v1/policies    the eviction-policy registry
//	GET  /v1/apps        the Table II workload catalog
//	GET  /v1/scenarios   the workload-v2 scenario presets (phases/tenants)
//	GET  /healthz        liveness (503 while draining; body carries capacity)
//	GET  /metrics        Prometheus text exposition
//
// Run IDs are runspec content addresses (Spec.ID()), so identical requests —
// across clients, across restarts, across replicas, and across the suite and
// CLI layers that speak the same spec — share one ID, one simulation, and one
// cache entry, and byte-identical bodies are guaranteed by the simulator's
// determinism contract. Errors are typed envelopes (errors.go): every non-2xx
// JSON body is {"error":{"code","message","run_id?"}} with a machine-readable
// code shared verbatim with the cluster coordinator.
//
// The coordinator runs on this same Server: New puts the local simulator
// behind the compute seam (compute.go), NewFront puts the coordinator's ring
// dispatcher there, and everything else — routes, decoding, content
// addressing, cache, coalescer, enumeration, envelopes, drain — is one
// implementation for both daemons.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpe"
	"hpe/internal/flight"
	"hpe/internal/promtext"
	"hpe/internal/respcache"
	"hpe/internal/runspec"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of concurrent simulations, and the cap on one
	// /v1/suite sweep's parallelism; defaults to GOMAXPROCS.
	Workers int
	// QueueDepth is how many admitted computations may wait beyond the
	// running ones before submissions get 429; defaults to 4×Workers.
	QueueDepth int
	// CacheBytes is the result cache's byte budget; defaults to 256 MiB.
	// Negative disables caching.
	CacheBytes int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
}

// Server is the /v1 front. Construct with New (local simulation) or
// NewFront (a cluster coordinator's dispatcher); it is safe for concurrent
// use and is wired into an http.Server via Handler.
type Server struct {
	comp       compute
	logf       func(format string, args ...any)
	baseCtx    context.Context
	baseCancel context.CancelFunc
	cache      *respcache.Cache
	co         *flight.Group
	met        frontMetrics
	mux        *http.ServeMux
	draining   chan struct{} // closed by Drain
	drainOnce  sync.Once

	flightMu sync.Mutex
	flights  map[string]string // guarded by flightMu; in-flight id → enumeration summary
}

// New builds hped's Server: every computation simulates in-process behind
// the bounded admission queue.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	return NewFront(newLocal(cfg), cfg.CacheBytes, cfg.Logf)
}

// NewFront builds a Server whose computations go through comp instead of the
// local simulator. The cluster coordinator calls it with its ring
// dispatcher. cacheBytes and logf mean what Config's CacheBytes and Logf do.
func NewFront(comp compute, cacheBytes int64, logf func(format string, args ...any)) *Server {
	if cacheBytes == 0 {
		cacheBytes = 256 << 20
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	//lint:ignore hpelint/ctxflow the daemon owns its lifecycle root; Close cancels it, and per-request contexts derive from it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		comp:       comp,
		logf:       logf,
		baseCtx:    ctx,
		baseCancel: cancel,
		cache:      respcache.New(cacheBytes),
		co:         flight.NewGroup(),
		met:        frontMetrics{requests: make(map[string]uint64)},
		draining:   make(chan struct{}),
		flights:    make(map[string]string),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGetRun)
	mux.HandleFunc("POST /v1/suite", s.handleSuite)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("GET /v1/apps", s.handleApps)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into draining mode: health checks fail (so load
// balancers stop routing here) and new submissions are refused with 503,
// while requests already in flight run to completion.
func (s *Server) Drain() { s.drainOnce.Do(func() { close(s.draining) }) }

// isDraining reports whether Drain has been called.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Close drains the server, cancels every computation still running (their
// engines or dispatches stop at the next cancellation poll), releases the
// compute seam, and returns its final stats summary for logging — the
// flush-on-shutdown line.
func (s *Server) Close() string {
	s.Drain()
	s.baseCancel()
	return s.comp.Close(s.stats())
}

// stats snapshots the front's state for the compute seam.
func (s *Server) stats() FrontStats {
	requests, cachedHit := s.met.snapshot()
	return FrontStats{Requests: requests, CachedHit: cachedHit,
		Cache: s.cache.Snapshot(), Coalesced: s.co.Coalesced()}
}

// --- response plumbing ---------------------------------------------------

// statusClientGone is nginx's convention for "client closed request"; the
// client is not listening, but the code keeps the metrics honest.
const statusClientGone = 499

func (s *Server) writeBody(w http.ResponseWriter, route string, code int, source string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if source != "" {
		w.Header().Set("X-Hped-Source", source)
	}
	w.WriteHeader(code)
	w.Write(body)
	s.met.observeRequest(route, code)
}

// writeError emits one typed error envelope (errors.go). 429 and 503
// responses carry a Retry-After hint priced by the compute seam, so
// backpressured clients pace themselves instead of guessing.
func (s *Server) writeError(w http.ResponseWriter, route string, status int, code ErrorCode, msg, runID string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.comp.RetryAfter()))
	}
	WriteError(w, status, code, msg, runID)
	s.met.observeRequest(route, status)
}

// writeTyped writes a failure that already carries its response verbatim.
func (s *Server) writeTyped(w http.ResponseWriter, route string, e *Error) {
	s.writeError(w, route, e.Status, e.Body.Code, e.Body.Message, e.Body.RunID)
}

// decodeJSON reads a bounded request body with unknown fields rejected —
// a typoed option silently dropped would alias distinct requests onto one
// content address.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// --- run submission ------------------------------------------------------

// RunResponse is the body of a completed run: the ID, the canonicalized
// spec it addresses, and the full simulation result. The cluster coordinator
// decodes it when merging remote shards, so it is part of the wire contract.
type RunResponse struct {
	ID      string      `json:"id"`
	Request hpe.RunSpec `json:"request"`
	Result  hpe.Result  `json:"result"`
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	const route = "run_submit"
	if s.isDraining() {
		s.writeError(w, route, http.StatusServiceUnavailable, ErrDraining, "server draining", "")
		return
	}
	// The wire form IS the canonical run spec: bounded body, unknown fields
	// rejected, canonicalized on decode, content-addressed by Spec.ID().
	sp, err := runspec.Decode(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, "bad request body: "+err.Error(), "")
		return
	}
	// A trace-file source reads the serving host's filesystem, and the file's
	// content is not part of the spec's content address — two backends could
	// cache different results under one ID. Replay trace files locally.
	if strings.HasPrefix(sp.App, "trace:") {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec,
			"trace-file workload sources are not servable; replay them with hpesim", "")
		return
	}
	id := sp.ID()
	s.serveComputed(w, r, route, id, specSummary(sp), func(ctx context.Context) ([]byte, error) {
		return s.comp.Run(ctx, sp, id)
	})
}

// serveComputed is the shared cache → coalesce → compute path for runs and
// suite sweeps. summary is the ID's enumeration sketch: listed beside the
// flight while it runs, and stored with the cached body once it completes.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, route, id, summary string,
	compute func(context.Context) ([]byte, error)) {
	start := time.Now()
	if body, ok := s.cache.Get(id); ok {
		s.met.observeCachedHit(time.Since(start))
		s.writeBody(w, route, http.StatusOK, "cache", body)
		return
	}
	body, coalesced, err := s.co.Do(r.Context(), s.baseCtx, id, func(ctx context.Context) ([]byte, error) {
		s.trackFlight(id, summary)
		defer s.untrackFlight(id)
		body, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		s.cache.Put(id, body, summary)
		return body, nil
	})
	source := s.comp.Source()
	if coalesced {
		source = "coalesce"
	}
	var typed *Error
	switch {
	case err == nil:
		s.writeBody(w, route, http.StatusOK, source, body)
	case errors.As(err, &typed):
		if typed.Status >= http.StatusInternalServerError {
			s.logf("hped: %s %s failed: %v", route, id, err)
		}
		s.writeTyped(w, route, typed)
	case r.Context().Err() != nil:
		// The client went away; nobody reads this, but the metrics do.
		s.writeError(w, route, statusClientGone, ErrClientGone, "client disconnected", id)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, route, http.StatusServiceUnavailable, ErrCancelled,
			"computation cancelled: "+err.Error(), id)
	default:
		s.logf("hped: %s %s failed: %v", route, id, err)
		s.writeError(w, route, http.StatusInternalServerError, ErrInternal,
			"computation failed: "+err.Error(), id)
	}
}

// --- run status ----------------------------------------------------------

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	const route = "run_get"
	id := r.PathValue("id")
	if body, ok := s.cache.Get(id); ok {
		s.writeBody(w, route, http.StatusOK, "cache", body)
		return
	}
	if waiters, running := s.co.Inflight(id); running {
		body, _ := json.Marshal(map[string]any{"id": id, "status": "running", "waiters": waiters})
		s.writeBody(w, route, http.StatusAccepted, "", append(body, '\n'))
		return
	}
	if status, body, source := s.comp.Fetch(r.Context(), id); status != 0 {
		if status == http.StatusOK {
			s.cache.Put(id, body, "")
		}
		s.writeBody(w, route, status, source, body)
		return
	}
	s.writeError(w, route, http.StatusNotFound, ErrNotFound,
		"unknown run id (results live in LRU caches; re-POST the request to recompute)", id)
}

// --- suite sweeps --------------------------------------------------------

// suiteReport is one experiment's JSON form. Metrics that JSON cannot carry
// are clamped (±Inf → ±MaxFloat64) or dropped (NaN) with the rewrite
// recorded in Clamped, mirroring hpebench -json.
type suiteReport struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Text    string             `json:"text"`
	Metrics map[string]float64 `json:"metrics"`
	Clamped map[string]string  `json:"clamped,omitempty"`
}

type suiteResponse struct {
	ID      string        `json:"id"`
	Request SuiteRequest  `json:"request"`
	Reports []suiteReport `json:"reports"`
}

// RenderSuiteBody renders the canonical /v1/suite response body for a
// normalized request and its reports. The cluster coordinator calls the same
// function over remotely merged reports, which is what makes a coordinator
// sweep byte-identical to a single-node one.
func RenderSuiteBody(id string, req SuiteRequest, reports []hpe.Report) ([]byte, error) {
	out := suiteResponse{ID: id, Request: req, Reports: make([]suiteReport, len(reports))}
	for i, rep := range reports {
		metrics, clamped := clampMetrics(rep.Metrics)
		out.Reports[i] = suiteReport{ID: rep.ID, Title: rep.Title, Text: rep.Text,
			Metrics: metrics, Clamped: clamped}
	}
	body, err := json.Marshal(out)
	if err != nil {
		return nil, fmt.Errorf("render reports: %w", err)
	}
	return append(body, '\n'), nil
}

func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	const route = "suite_submit"
	if s.isDraining() {
		s.writeError(w, route, http.StatusServiceUnavailable, ErrDraining, "server draining", "")
		return
	}
	var req SuiteRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, "bad request body: "+err.Error(), "")
		return
	}
	id, err := NormalizeSuite(&req)
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, err.Error(), "")
		return
	}
	hint := req.Workers
	req.Workers = 0 // scheduling hint: kept out of the cached body
	summary := fmt.Sprintf("%d experiments, quick=%t, seed=%d", len(req.IDs), req.Quick, req.Seed)
	s.serveComputed(w, r, route, id, summary, func(ctx context.Context) ([]byte, error) {
		return s.comp.Suite(ctx, req, id, hint)
	})
}

// clampMetrics rewrites values JSON cannot carry, recording every rewrite.
func clampMetrics(in map[string]float64) (map[string]float64, map[string]string) {
	metrics := make(map[string]float64, len(in))
	var clamped map[string]string
	note := func(k, why string) {
		if clamped == nil {
			clamped = make(map[string]string)
		}
		clamped[k] = why
	}
	for k, v := range in {
		switch {
		case math.IsNaN(v):
			note(k, "NaN: dropped")
			continue
		case math.IsInf(v, 1):
			note(k, "+Inf: clamped to +MaxFloat64")
			v = math.MaxFloat64
		case math.IsInf(v, -1):
			note(k, "-Inf: clamped to -MaxFloat64")
			v = -math.MaxFloat64
		}
		metrics[k] = v
	}
	return metrics, clamped
}

// --- catalog endpoints ---------------------------------------------------

type policyJSON struct {
	Name          string   `json:"name"`
	Display       string   `json:"display"`
	Description   string   `json:"description"`
	Aliases       []string `json:"aliases,omitempty"`
	NeedsCapacity bool     `json:"needs_capacity,omitempty"`
	NeedsTrace    bool     `json:"needs_trace,omitempty"`
	NeedsHIR      bool     `json:"needs_hir,omitempty"`
}

func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	infos := hpe.Policies()
	out := make([]policyJSON, len(infos))
	for i, info := range infos {
		out[i] = policyJSON{Name: info.Name, Display: info.Display,
			Description: info.Description, Aliases: info.Aliases,
			NeedsCapacity: info.NeedsCapacity, NeedsTrace: info.NeedsTrace,
			NeedsHIR: info.NeedsHIR}
	}
	s.writeCatalog(w, "policies", out)
}

type appJSON struct {
	Name           string `json:"name"`
	Abbr           string `json:"abbr"`
	Suite          string `json:"suite"`
	Pattern        string `json:"pattern"`
	Pages          int    `json:"pages"`
	FootprintBytes uint64 `json:"footprint_bytes"`
	ComputeGap     int    `json:"compute_gap"`
}

// handleScenarios lists the named workload-v2 presets, ready to paste into
// a run spec's phases/tenants fields.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	s.writeCatalog(w, "scenarios", hpe.Scenarios())
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	apps := hpe.Workloads()
	out := make([]appJSON, len(apps))
	for i, a := range apps {
		out[i] = appJSON{Name: a.Name, Abbr: a.Abbr, Suite: a.Suite,
			Pattern: a.Pattern.String(), Pages: a.Pages(),
			FootprintBytes: a.FootprintBytes(), ComputeGap: a.ComputeGap}
	}
	s.writeCatalog(w, "apps", out)
}

// writeCatalog renders one catalog listing. The registry and the catalog are
// compiled into every binary, so a coordinator serves the bytes a backend
// would.
func (s *Server) writeCatalog(w http.ResponseWriter, route string, v any) {
	body, _ := json.Marshal(v)
	s.writeBody(w, route, http.StatusOK, "", append(body, '\n'))
}

// --- health and metrics --------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	const route = "healthz"
	if s.isDraining() {
		s.writeError(w, route, http.StatusServiceUnavailable, ErrDraining, "draining", "")
		return
	}
	body, unhealthy := s.comp.Health()
	if unhealthy != nil {
		s.writeTyped(w, route, unhealthy)
		return
	}
	s.writeBody(w, route, http.StatusOK, "", body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	s.comp.Metrics(w, s.stats())
	s.met.observeRequest("metrics", http.StatusOK)
}
