package cluster

import (
	"io"
	"maps"
	"sync"
	"time"

	"hpe/internal/promtext"
	"hpe/internal/server"
	"hpe/internal/stats"
)

// clusterMetrics aggregates the coordinator's dispatch counters: shard
// outcomes per backend, re-dispatches, and the shard service-latency
// histogram the saturation analyzer cross-checks. HTTP responses are counted
// by the front (server.FrontStats).
type clusterMetrics struct {
	mu sync.Mutex

	shards map[string]uint64 // guarded by mu; backend → shards completed

	redispatched uint64          // guarded by mu; shards tried off their primary owner or re-tried
	shardLat     stats.Histogram // guarded by mu; shard round-trip, µs
}

func newClusterMetrics() *clusterMetrics {
	return &clusterMetrics{shards: make(map[string]uint64)}
}

// shardDone records one shard served by the named backend.
func (m *clusterMetrics) shardDone(backend string, d time.Duration) {
	m.mu.Lock()
	m.shards[backend]++
	m.shardLat.Observe(uint64(d.Microseconds()))
	m.mu.Unlock()
}

// redispatch counts one shard attempt landing somewhere other than its
// first-choice owner on the first try — the ring-walk fallback in action.
func (m *clusterMetrics) redispatch() {
	m.mu.Lock()
	m.redispatched++
	m.mu.Unlock()
}

// redispatchCount returns the redispatch counter (tests).
func (m *clusterMetrics) redispatchCount() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.redispatched
}

// render writes the full Prometheus exposition: the metrics' own counters
// plus the front's figures and the point-in-time backend and saturation
// figures the Coordinator passes in.
func (m *clusterMetrics) render(w io.Writer, st server.FrontStats, snaps []backendSnapshot, sat Saturation) {
	// Snapshot under the lock, render outside it: w is an HTTP response, and
	// a slow scraper must not stall shard-dispatch bookkeeping behind the
	// socket write (hpelint/lockorder).
	m.mu.Lock()
	shards := maps.Clone(m.shards)
	redispatched := m.redispatched
	shardLat := m.shardLat
	m.mu.Unlock()
	cs := st.Cache
	p := promtext.New(w)

	p.LabelledCounter("hped_cluster_requests_total",
		"Coordinator HTTP responses by route and status code.", st.Requests, "route_code")
	p.LabelledCounter("hped_cluster_shards_total",
		"Shards completed, by owning backend.", shards, "backend")
	p.Counter("hped_cluster_redispatched_total",
		"Shard attempts routed past their primary owner (dead, broken, or saturated).",
		redispatched)
	p.Counter("hped_cluster_coalesced_total",
		"Coordinator requests served by joining an identical in-flight computation.", st.Coalesced)

	up := make(map[string]float64, len(snaps))
	open := make(map[string]float64, len(snaps))
	workers := make(map[string]float64, len(snaps))
	inflight := make(map[string]float64, len(snaps))
	dispatched := make(map[string]uint64, len(snaps))
	failures := make(map[string]uint64, len(snaps))
	breakerOpens := make(map[string]uint64, len(snaps))
	capacity := make(map[string]float64, len(snaps))
	for _, s := range snaps {
		up[s.Name] = b2f(s.Alive)
		open[s.Name] = b2f(s.BreakerOpen)
		workers[s.Name] = float64(s.Workers)
		inflight[s.Name] = float64(s.Inflight)
		dispatched[s.Name] = s.Dispatched
		failures[s.Name] = s.Failures
		breakerOpens[s.Name] = s.BreakerOpens
		capacity[s.Name] = s.CapacityRPS
	}
	p.LabelledGauge("hped_cluster_backend_up",
		"1 when the backend's last health probe succeeded.", up, "backend")
	p.LabelledGauge("hped_cluster_backend_breaker_open",
		"1 while the backend's circuit breaker refuses shards.", open, "backend")
	p.LabelledGauge("hped_cluster_backend_workers",
		"Simulation workers the backend reported on /healthz.", workers, "backend")
	p.LabelledGauge("hped_cluster_backend_inflight_shards",
		"Shards currently dispatched to the backend.", inflight, "backend")
	p.LabelledCounter("hped_cluster_backend_dispatch_failures_total",
		"Dispatch failures charged to the backend's breaker.", failures, "backend")
	p.LabelledCounter("hped_cluster_backend_breaker_opens_total",
		"Closed-to-open breaker transitions per backend.", breakerOpens, "backend")
	p.LabelledCounter("hped_cluster_backend_shards_done_total",
		"Shards the backend completed (breaker-level view).", dispatched, "backend")

	// The saturation analyzer's output: per-backend and whole-cluster max
	// sustainable request rate, from observed service times and reported
	// worker counts.
	p.LabelledGauge("hped_cluster_backend_capacity_rps",
		"Estimated max sustainable shard rate of the backend (workers / EWMA service seconds).",
		capacity, "backend")
	p.Gauge("hped_cluster_capacity_rps",
		"Estimated max sustainable shard rate of the whole cluster (sum over live backends).",
		sat.ClusterRPS)
	p.Gauge("hped_cluster_backends_live",
		"Backends whose last health probe succeeded.", float64(sat.Live))

	p.Counter("hped_cluster_cache_hits_total", "Coordinator result-cache hits.", cs.Hits)
	p.Counter("hped_cluster_cache_misses_total", "Coordinator result-cache misses.", cs.Misses)
	p.Gauge("hped_cluster_cache_bytes",
		"Bytes of response bodies held by the coordinator's result cache.", float64(cs.Bytes))
	p.Gauge("hped_cluster_cache_entries",
		"Entries held by the coordinator's result cache.", float64(cs.Entries))

	p.Histogram("hped_cluster_shard_latency_seconds",
		"Round-trip latency of one shard dispatched to a backend.", &shardLat, 1e-6)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
