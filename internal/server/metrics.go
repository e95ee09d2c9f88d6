package server

import (
	"context"
	"errors"
	"io"
	"maps"
	"sync"
	"time"

	"hpe/internal/probe"
	"hpe/internal/promtext"
	"hpe/internal/respcache"
	"hpe/internal/stats"
)

// frontMetrics is what the /v1 front observes on either daemon: responses by
// route and status code, and the latency of cache hits. Each compute seam
// renders them under its own series names (FrontStats).
type frontMetrics struct {
	mu        sync.Mutex
	requests  map[string]uint64 // guarded by mu; "route code" → count
	cachedLat stats.Histogram   // guarded by mu; cache-hit responses, µs
}

// observeRequest counts one HTTP response by route and status code.
func (m *frontMetrics) observeRequest(route string, code int) {
	m.mu.Lock()
	m.requests[route+" "+itoa(code)]++
	m.mu.Unlock()
}

func itoa(code int) string {
	// Status codes are three digits; avoid strconv on the request path.
	return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
}

// observeCachedHit records a cache-hit response latency.
func (m *frontMetrics) observeCachedHit(d time.Duration) {
	m.mu.Lock()
	m.cachedLat.Observe(uint64(d.Microseconds()))
	m.mu.Unlock()
}

// snapshot copies the counters out, so a renderer can release the lock
// before any byte reaches the response writer.
func (m *frontMetrics) snapshot() (map[string]uint64, stats.Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.requests), m.cachedLat
}

// FrontStats is the front's point-in-time state, handed to the compute
// seam's /metrics renderer and its Close line.
type FrontStats struct {
	// Requests counts responses by "route code".
	Requests map[string]uint64
	// CachedHit is the cache-hit latency histogram, in µs.
	CachedHit stats.Histogram
	Cache     respcache.Stats
	// Coalesced counts requests that joined an in-flight computation.
	Coalesced uint64
}

// serverMetrics aggregates the local simulator's operational counters and
// latency histograms. Latencies land in internal/stats power-of-two
// histograms (observed in microseconds, exported in seconds); simulation-level
// event counts are merged from each run's probe.Metrics snapshot, so /metrics
// exposes both the serving layer and the simulated machine it fronts.
type serverMetrics struct {
	mu sync.Mutex

	runsStarted   uint64 // guarded by mu
	runsCompleted uint64 // guarded by mu
	runsCancelled uint64 // guarded by mu
	runsFailed    uint64 // guarded by mu

	simEvents map[string]uint64 // guarded by mu; probe kind name → total events

	simLat   stats.Histogram // guarded by mu; full simulations, µs
	suiteLat stats.Histogram // guarded by mu; suite sweeps, µs
}

func newServerMetrics() *serverMetrics {
	return &serverMetrics{simEvents: make(map[string]uint64)}
}

// runStarted/runFinished bracket one leader computation (not coalesced
// waiters). cancelled marks runs stopped by context rather than completed.
func (m *serverMetrics) runStarted() {
	m.mu.Lock()
	m.runsStarted++
	m.mu.Unlock()
}

func (m *serverMetrics) runFinished(d time.Duration, err error, suite bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		m.runsCancelled++
		return
	case err != nil:
		m.runsFailed++
		return
	}
	m.runsCompleted++
	if suite {
		m.suiteLat.Observe(uint64(d.Microseconds()))
	} else {
		m.simLat.Observe(uint64(d.Microseconds()))
	}
}

// meanRunSeconds is the observed mean leader-computation latency across runs
// and sweeps, in seconds; 0 before anything has completed. The Retry-After
// estimate prices the admission backlog with it.
func (m *serverMetrics) meanRunSeconds() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := m.simLat.Count() + m.suiteLat.Count()
	if count == 0 {
		return 0
	}
	return float64(m.simLat.Sum()+m.suiteLat.Sum()) / float64(count) * 1e-6
}

// mergeProbe folds one run's probe snapshot into the per-kind event totals.
func (m *serverMetrics) mergeProbe(s *probe.Snapshot) {
	if s == nil {
		return
	}
	m.mu.Lock()
	for _, k := range s.Kinds {
		m.simEvents[k.Kind] += k.Count
	}
	m.mu.Unlock()
}

// simEventTotal returns the merged count for one probe kind (tests).
func (m *serverMetrics) simEventTotal(kind string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.simEvents[kind]
}

// render writes the full Prometheus exposition, combining the metrics'
// own state with the front's figures and the point-in-time queue figures
// the local compute passes in.
func (m *serverMetrics) render(w io.Writer, st FrontStats, queued, running int, rejected uint64) {
	// Snapshot under the lock, render outside it: w is an HTTP response, and
	// a slow client scraping /metrics must not stall every request-path
	// counter update behind the socket write (hpelint/lockorder).
	m.mu.Lock()
	simEvents := maps.Clone(m.simEvents)
	runsStarted, runsCompleted := m.runsStarted, m.runsCompleted
	runsCancelled, runsFailed := m.runsCancelled, m.runsFailed
	simLat, suiteLat := m.simLat, m.suiteLat
	m.mu.Unlock()
	cs := st.Cache
	p := promtext.New(w)

	p.LabelledCounter("hped_requests_total",
		"HTTP responses by route and status code.", st.Requests, "route_code")
	p.Counter("hped_runs_started_total",
		"Leader computations started (coalesced waiters excluded).", runsStarted)
	p.Counter("hped_runs_completed_total",
		"Leader computations that ran to completion.", runsCompleted)
	p.Counter("hped_runs_cancelled_total",
		"Leader computations stopped early by cancellation.", runsCancelled)
	p.Counter("hped_runs_failed_total",
		"Leader computations that errored (including recovered panics).", runsFailed)
	p.Counter("hped_runs_coalesced_total",
		"Requests served by joining an identical in-flight computation.", st.Coalesced)

	p.Counter("hped_cache_hits_total", "Result-cache hits.", cs.Hits)
	p.Counter("hped_cache_misses_total", "Result-cache misses.", cs.Misses)
	p.Counter("hped_cache_evictions_total", "Result-cache LRU evictions.", cs.Evictions)
	p.Gauge("hped_cache_bytes", "Bytes of response bodies held by the result cache.", float64(cs.Bytes))
	p.Gauge("hped_cache_entries", "Entries held by the result cache.", float64(cs.Entries))

	p.Gauge("hped_queue_depth", "Admitted computations waiting for a worker slot.", float64(queued))
	p.Gauge("hped_running", "Computations currently holding a worker slot.", float64(running))
	p.Counter("hped_queue_rejected_total",
		"Submissions refused with 429 because the admission queue was full.", rejected)

	p.Histogram("hped_cached_hit_latency_seconds",
		"Latency of responses served from the result cache.", &st.CachedHit, 1e-6)
	p.Histogram("hped_run_latency_seconds",
		"Latency of single-run simulations (leader computations).", &simLat, 1e-6)
	p.Histogram("hped_suite_latency_seconds",
		"Latency of suite sweeps (leader computations).", &suiteLat, 1e-6)

	p.LabelledCounter("hped_sim_events_total",
		"Simulator probe events aggregated across served runs, by kind.", simEvents, "kind")
}
