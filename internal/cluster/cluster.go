// Package cluster implements hped's coordinator: one process that owns the
// public /v1 surface and partitions work across N hped backends by
// consistent-hashing each run's content address. The coordinator is not a
// dumb proxy — it runs the experiment harness locally (aggregation, report
// rendering, canonical ordering) and delegates only the simulations, each
// shard travelling to the backend owning its Spec.ID() over the exact wire
// forms a single hped speaks. Determinism is what makes the architecture
// sound: any backend's answer for a shard is THE answer, so a merged sweep
// is byte-identical to a single-node run, a restarted backend re-owns its
// old shards, and a dead backend's shards fall through to the next backend
// on the ring with no reconciliation protocol.
//
// The coordinator is a server.Server: cluster.New builds the same /v1 front
// hped runs, with the coordinator's ring dispatcher behind its compute seam
// instead of the local simulator. So the routes, decoding, cache, coalescer,
// envelopes and drain are hped's own code, and this package adds only what
// a fleet needs — the ring, dispatch with re-dispatch and circuit breaking,
// health checking, the merged listing, and cluster-level /metrics:
// per-backend liveness, breaker state, shard and re-dispatch counters, and
// the saturation analyzer's max-sustainable-rate estimates. See DESIGN.md
// §13.
package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hpe"
	"hpe/internal/runspec"
	"hpe/internal/server"
)

// Config sizes the coordinator.
type Config struct {
	// Backends are the base URLs of the hped instances to shard across
	// (e.g. "http://10.0.0.1:8080"). Required, at least one.
	Backends []string
	// HealthInterval is the /healthz polling period; defaults to 2s.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe; defaults to 1s.
	HealthTimeout time.Duration
	// MaxAttempts is how many ring-walk rounds one shard gets before the
	// coordinator gives up with backend_unavailable; defaults to 4.
	MaxAttempts int
	// BackoffBase/BackoffMax bound the deterministic exponential backoff
	// between dispatch rounds; default 100ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// backend's circuit breaker; defaults to 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses shards before one
	// half-open probe is allowed; defaults to 5s.
	BreakerCooldown time.Duration
	// CacheBytes is the coordinator's merged-result cache budget; defaults
	// to 256 MiB. Negative disables caching.
	CacheBytes int64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// ringVNodes is the number of virtual ring points per backend.
const ringVNodes = 64

func (c *Config) fillDefaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
}

// Coordinator fronts a set of hped backends. Construct with New; it is safe
// for concurrent use. Its embedded server.Server is the /v1 front (Handler,
// Drain, Close).
type Coordinator struct {
	*server.Server
	cfg        Config
	baseCtx    context.Context // the health loop's lifetime; Close cancels it
	baseCancel context.CancelFunc
	ring       *ring
	order      []string            // backend names, configuration order (immutable)
	backends   map[string]*backend // immutable map; each backend locks itself
	client     *http.Client
	met        *clusterMetrics
	healthDone chan struct{} // closed when the health loop exits
}

// New builds a Coordinator, performs one synchronous health round (so the
// first request sees real liveness, not a cold default), and starts the
// background health loop.
func New(cfg Config) (*Coordinator, error) {
	cfg.fillDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	seen := make(map[string]bool, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b == "" || seen[b] {
			return nil, fmt.Errorf("cluster: empty or duplicate backend %q", b)
		}
		seen[b] = true
	}
	//lint:ignore hpelint/ctxflow the coordinator owns its lifecycle root; Close cancels it, and the health loop derives from it
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		ring:       newRing(cfg.Backends, ringVNodes),
		order:      cfg.Backends,
		backends:   make(map[string]*backend, len(cfg.Backends)),
		client:     &http.Client{},
		met:        newClusterMetrics(),
		healthDone: make(chan struct{}),
	}
	for _, name := range cfg.Backends {
		c.backends[name] = newBackend(name)
	}
	c.Server = server.NewFront(ringCompute{c}, cfg.CacheBytes, cfg.Logf)

	c.CheckHealth(ctx)
	go c.healthLoop()
	return c, nil
}

// --- health checking -----------------------------------------------------

// healthLoop polls every backend until Close.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.CheckHealth(c.baseCtx)
		}
	}
}

// CheckHealth performs one synchronous health round over all backends,
// updating liveness and capacity. Exported so tests (and the coordinator's
// own startup) can force a round instead of waiting out the interval.
func (c *Coordinator) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, name := range c.order {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			c.probeBackend(ctx, b)
		}(c.backends[name])
	}
	wg.Wait()
}

// probeBackend runs one GET /healthz against one backend.
func (c *Coordinator) probeBackend(ctx context.Context, b *backend) {
	pctx, cancel := context.WithTimeout(ctx, c.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.name+"/healthz", nil)
	if err != nil {
		b.setHealth(false, 0, 0)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		b.setHealth(false, 0, 0)
		return
	}
	defer resp.Body.Close()
	var hb server.HealthBody
	if resp.StatusCode != http.StatusOK ||
		json.NewDecoder(resp.Body).Decode(&hb) != nil || hb.Status != "ok" {
		b.setHealth(false, 0, 0)
		return
	}
	b.setHealth(true, hb.Workers, hb.Queue)
}

// liveBackends returns the names of backends whose last probe succeeded, in
// configuration order.
func (c *Coordinator) liveBackends() []string {
	out := make([]string, 0, len(c.order))
	for _, name := range c.order {
		if c.backends[name].isAlive() {
			out = append(out, name)
		}
	}
	return out
}

// --- the compute seam ----------------------------------------------------

// ringCompute is the coordinator's side of server.Server's compute seam:
// runs and sweep cells dispatch down the ring, a run the front does not hold
// is looked up on the backends, the listing merges theirs, and /healthz,
// /metrics and the Close line describe the cluster. There is no admission
// queue: the per-backend dispatch windows bound concurrency.
type ringCompute struct{ *Coordinator }

func (rc ringCompute) Run(ctx context.Context, sp runspec.Spec, id string) ([]byte, error) {
	body, err := rc.dispatchRun(ctx, sp, id)
	return body, unavailable(id, err)
}

// Suite ignores the client's hint: the sweep is sized to the live backends.
func (rc ringCompute) Suite(ctx context.Context, req server.SuiteRequest, id string, _ int) ([]byte, error) {
	body, err := rc.sweepSuite(ctx, req, id)
	return body, unavailable(id, err)
}

// unavailable classifies a failed dispatch for the front. A relayed backend
// rejection and a cancellation keep their own response; anything else means
// no backend could run the shard.
func unavailable(id string, err error) error {
	var typed *server.Error
	if err == nil || errors.As(err, &typed) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &server.Error{Status: http.StatusServiceUnavailable, Body: server.ErrorBody{
		Code: server.ErrBackendUnavailable, Message: "no backend could run this shard: " + err.Error(), RunID: id}}
}

func (ringCompute) Source() string { return "dispatch" }

// RetryAfter prices the cluster's backlog: total in-flight shards across
// backends, divided by the cluster's estimated capacity. Clamped to [1, 300]
// like the backend's own hint.
func (rc ringCompute) RetryAfter() int {
	sat := rc.Saturation()
	inflight := 0
	for _, s := range rc.snapshots() {
		inflight += s.Inflight
	}
	if sat.ClusterRPS <= 0 {
		return 1
	}
	est := float64(inflight+1) / sat.ClusterRPS
	switch {
	case est < 1:
		return 1
	case est > 300:
		return 300
	}
	return int(est)
}

// Fetch walks the run's preference sequence, then any other live backend
// (the id may predate a ring change). The first cached or in-flight answer
// wins, relayed with the backend's name as its source.
func (rc ringCompute) Fetch(ctx context.Context, id string) (int, []byte, string) {
	tried := make(map[string]bool)
	for _, name := range append(rc.ring.sequence(id), rc.liveBackends()...) {
		if tried[name] {
			continue
		}
		tried[name] = true
		if !rc.backends[name].usable(time.Now(), rc.cfg.BreakerThreshold) {
			continue
		}
		status, body, err := rc.proxyGet(ctx, name, "/v1/runs/"+id)
		if err != nil || status == http.StatusNotFound {
			continue
		}
		return status, body, name
	}
	return 0, nil, ""
}

// ClusterHealthBody is the coordinator's /healthz response.
type ClusterHealthBody struct {
	Status   string `json:"status"`
	Backends int    `json:"backends"`
	Live     int    `json:"live"`
	// Workers is the summed simulation capacity of the live backends.
	Workers int `json:"workers"`
}

func (rc ringCompute) Health() ([]byte, *server.Error) {
	hb := ClusterHealthBody{Status: "ok", Backends: len(rc.order)}
	for _, s := range rc.snapshots() {
		if s.Alive {
			hb.Live++
			hb.Workers += s.Workers
		}
	}
	if hb.Live == 0 {
		return nil, &server.Error{Status: http.StatusServiceUnavailable, Body: server.ErrorBody{
			Code: server.ErrBackendUnavailable, Message: "no live backends"}}
	}
	body, _ := json.Marshal(hb)
	return append(body, '\n'), nil
}

func (rc ringCompute) Metrics(w io.Writer, st server.FrontStats) {
	rc.met.render(w, st, rc.snapshots(), rc.Saturation())
}

// Close stops the health loop; the front has already cancelled in-flight
// dispatches.
func (rc ringCompute) Close(st server.FrontStats) string {
	rc.baseCancel()
	<-rc.healthDone
	sat := rc.Saturation()
	return fmt.Sprintf("cluster: %d/%d backends live, %.2f rps capacity; cache: %d entries, %d bytes; coalesced %d, redispatched %d",
		sat.Live, len(rc.order), sat.ClusterRPS, st.Cache.Entries, st.Cache.Bytes,
		st.Coalesced, rc.met.redispatchCount())
}

// --- sweeps --------------------------------------------------------------

// sweepSuite runs one sweep with the experiment harness local and every
// simulation delegated: the suite enumerates the run matrix, each cell's
// content-addressed spec is consistent-hashed to a backend, and the local
// harness aggregates the returned results into reports. RenderSuiteBody is
// the same renderer a backend uses, so the merged body is byte-identical to
// a single-node sweep.
func (c *Coordinator) sweepSuite(ctx context.Context, req server.SuiteRequest, id string) ([]byte, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var errMu sync.Mutex
	var dispatchErr error // guarded by errMu
	fail := func(err error) {
		errMu.Lock()
		if dispatchErr == nil {
			dispatchErr = err
		}
		errMu.Unlock()
		cancel() // the sweep cannot complete; stop the whole matrix
	}

	// Adaptive width: enough concurrent shards to fill every live backend's
	// window (workers + queue) without tripping 429s.
	workers := 0
	for _, s := range c.snapshots() {
		if s.Alive {
			workers += s.Workers + s.Queue
		}
	}
	if workers < 4 {
		workers = 4
	}

	suite := hpe.NewSuite(hpe.SuiteOptions{
		Quick:   req.Quick,
		Seed:    req.Seed,
		Workers: workers,
		Context: runCtx,
		Runner: func(rctx context.Context, sp hpe.RunSpec, rid string) (hpe.Result, error) {
			body, err := c.dispatchRun(rctx, sp, rid)
			if err != nil {
				fail(err)
				return hpe.Result{}, err
			}
			var rr server.RunResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				fail(fmt.Errorf("shard %s: malformed run response: %w", rid, err))
				return hpe.Result{}, err
			}
			return rr.Result, nil
		},
	})
	reports, err := suite.Reports(req.IDs)
	errMu.Lock()
	de := dispatchErr
	errMu.Unlock()
	if de != nil {
		return nil, de
	}
	if err != nil {
		return nil, err
	}
	return server.RenderSuiteBody(id, req, reports)
}
