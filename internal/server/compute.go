package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"hpe"
	"hpe/internal/runspec"
)

// compute is the seam between the /v1 front and whatever turns a content
// address into response bytes. The front owns everything the two daemons
// share — decoding, content addressing, the result cache, the coalescer,
// enumeration, the error envelope, drain — and asks the seam only for what
// differs. New builds the local simulator behind it (hped); the cluster
// coordinator passes its ring dispatcher to NewFront.
type compute interface {
	// Run computes one canonicalized run's response body (a RunResponse).
	Run(ctx context.Context, sp runspec.Spec, id string) ([]byte, error)
	// Suite computes one normalized sweep's response body. hint is the
	// client's parallelism hint (0 when absent); req.Workers is already
	// zeroed.
	Suite(ctx context.Context, req SuiteRequest, id string, hint int) ([]byte, error)
	// Source is the X-Hped-Source value of a freshly computed response.
	Source() string
	// RetryAfter prices the backlog, in seconds, for 429/503 responses.
	RetryAfter() int
	// Fetch resolves a GET /v1/runs/{id} the front holds neither cached nor
	// in flight; status 0 means nobody has it (404).
	Fetch(ctx context.Context, id string) (status int, body []byte, source string)
	// List feeds keep every run the seam knows of beyond the front's own
	// cache and flights.
	List(ctx context.Context, keep func(RunListEntry)) *Error
	// Health renders the /healthz body, or the reason the daemon is unhealthy.
	Health() ([]byte, *Error)
	// Metrics writes the /metrics exposition.
	Metrics(w io.Writer, st FrontStats)
	// Close releases the seam after the front cancelled its computations,
	// returning the final stats line.
	Close(st FrontStats) string
}

// local is hped's compute: runs and sweeps simulate in-process behind the
// bounded admission queue.
type local struct {
	workers    int
	queueDepth int
	adm        *admission
	met        *serverMetrics
	traces     *traceCache
}

func newLocal(cfg Config) *local {
	return &local{
		workers:    cfg.Workers,
		queueDepth: cfg.QueueDepth,
		adm:        newAdmission(cfg.Workers, cfg.QueueDepth),
		met:        newServerMetrics(),
		traces:     newTraceCache(),
	}
}

// admitted runs one leader computation once the admission queue grants it a
// worker slot, recording it in the run metrics.
func (l *local) admitted(ctx context.Context, id string, suite bool, run func() ([]byte, error)) ([]byte, error) {
	release, err := l.adm.admit(ctx)
	if errors.Is(err, errQueueFull) {
		return nil, &Error{Status: http.StatusTooManyRequests, Body: ErrorBody{Code: ErrQueueFull,
			Message: "admission queue full; retry after the Retry-After hint", RunID: id}}
	}
	if err != nil {
		return nil, err
	}
	defer release()
	l.met.runStarted()
	t0 := time.Now()
	body, err := run()
	l.met.runFinished(time.Since(t0), err, suite)
	return body, err
}

// Run executes one canonicalized run spec under ctx and renders its
// response body. The spec → (config, trace, policy) materialization lives in
// runspec; the server only contributes its byte-bounded trace cache and its
// metrics probe. Cancelled (partial) results are reported as errors and never
// rendered or cached.
func (l *local) Run(ctx context.Context, sp runspec.Spec, id string) ([]byte, error) {
	return l.admitted(ctx, id, false, func() ([]byte, error) {
		res, err := hpe.Run(sp,
			hpe.WithContext(ctx),
			hpe.WithProbe(hpe.NewMetricsProbe()),
			hpe.WithRunEnv(hpe.RunEnv{Trace: l.traces.get}))
		if err != nil {
			return nil, err
		}
		l.met.mergeProbe(res.Probe)
		if res.Cancelled {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, context.Canceled
		}
		body, err := json.Marshal(RunResponse{ID: id, Request: sp, Result: res})
		if err != nil {
			return nil, fmt.Errorf("render result: %w", err)
		}
		return append(body, '\n'), nil
	})
}

// Suite runs the requested experiments through the experiment harness
// in-process, simulating their planned cells on a worker pool capped by the
// hint and by the server's workers.
func (l *local) Suite(ctx context.Context, req SuiteRequest, id string, hint int) ([]byte, error) {
	workers := hint
	if workers <= 0 || workers > l.workers {
		workers = l.workers
	}
	return l.admitted(ctx, id, true, func() ([]byte, error) {
		suite := hpe.NewSuite(hpe.SuiteOptions{
			Quick:   req.Quick,
			Seed:    req.Seed,
			Workers: workers,
			Context: ctx,
		})
		reports, err := suite.Reports(req.IDs)
		if err != nil {
			return nil, err
		}
		return RenderSuiteBody(id, req, reports)
	})
}

func (*local) Source() string { return "simulate" }

// RetryAfter estimates how long a rejected client should wait before the
// admission queue plausibly has room: the queued-plus-running backlog,
// divided across the worker pool, priced at the observed mean computation
// latency (1 s before any run has completed). Clamped to [1, 300].
func (l *local) RetryAfter() int {
	queued, running := l.adm.Depths()
	mean := l.met.meanRunSeconds()
	if mean <= 0 {
		mean = 1
	}
	est := math.Ceil(float64(queued+running+1) * mean / float64(l.workers))
	if est < 1 {
		est = 1
	}
	if est > 300 {
		est = 300
	}
	return int(est)
}

// Fetch has nowhere else to look: results live only in the front's cache.
func (*local) Fetch(context.Context, string) (int, []byte, string) { return 0, nil, "" }

// List adds nothing to the front's own cache and flights.
func (*local) List(context.Context, func(RunListEntry)) *Error { return nil }

// HealthBody is the /healthz response: liveness plus the capacity figures
// the cluster coordinator sizes its per-backend dispatch window and
// saturation model from.
type HealthBody struct {
	Status  string `json:"status"`
	Workers int    `json:"workers"`
	Queue   int    `json:"queue"`
}

func (l *local) Health() ([]byte, *Error) {
	body, _ := json.Marshal(HealthBody{Status: "ok", Workers: l.workers, Queue: l.queueDepth})
	return append(body, '\n'), nil
}

func (l *local) Metrics(w io.Writer, st FrontStats) {
	queued, running := l.adm.Depths()
	l.met.render(w, st, queued, running, l.adm.Rejected())
}

func (l *local) Close(st FrontStats) string {
	cs := st.Cache
	queued, running := l.adm.Depths()
	return fmt.Sprintf(
		"cache: %d entries, %d/%d bytes, %d hits, %d misses, %d evictions; coalesced %d, rejected %d, queued %d, running %d",
		cs.Entries, cs.Bytes, cs.Budget, cs.Hits, cs.Misses, cs.Evictions,
		st.Coalesced, l.adm.Rejected(), queued, running)
}
