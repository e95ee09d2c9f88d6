package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hpe/internal/respcache"
)

// lockProbeWriter observes, at every Write, whether the metrics mutex is
// held. render must have released it before the first byte heads for the
// response writer — a slow scraper must not stall the request path
// (hpelint/lockorder).
type lockProbeWriter struct {
	mu       *sync.Mutex
	out      strings.Builder
	wrote    bool
	heldLock bool
}

func (p *lockProbeWriter) Write(b []byte) (int, error) {
	p.wrote = true
	if p.mu.TryLock() {
		p.mu.Unlock()
	} else {
		p.heldLock = true
	}
	return p.out.Write(b)
}

func TestRenderReleasesLockBeforeWriting(t *testing.T) {
	m := newServerMetrics()
	m.runStarted()
	m.runFinished(10*time.Millisecond, nil, false)
	front := FrontStats{Requests: map[string]uint64{"run_submit 200": 1},
		Cache: respcache.Stats{Hits: 3, Misses: 1}}
	front.CachedHit.Observe(1000)

	pw := &lockProbeWriter{mu: &m.mu}
	m.render(pw, front, 2, 1, 0)

	if !pw.wrote {
		t.Fatal("render wrote nothing")
	}
	if pw.heldLock {
		t.Error("render held serverMetrics.mu during a response write; snapshot state and render outside the lock")
	}
	for _, want := range []string{
		`hped_requests_total{route_code="run_submit 200"} 1`,
		"hped_runs_started_total 1",
		"hped_runs_completed_total 1",
		"hped_cache_hits_total 3",
		"hped_queue_depth 2",
	} {
		if !strings.Contains(pw.out.String(), want) {
			t.Errorf("render output missing %q", want)
		}
	}
}
