package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"time"

	"hpe/internal/cluster"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	"hpe/internal/runspec"
	"hpe/internal/server"
)

// coordPool is the experiments coord-suite draws its sweeps from: the
// grid-based figures plus cheap variant studies. It leaves out overhead,
// which times wall-clock itself.
var coordPool = []string{"fig3", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "temporal", "colocation"}

// coordSetup is a coordinator in front of two hped backends, all
// in-process on loopback, with the pool's union in the backends' caches.
type coordSetup struct {
	backends []*hped
	coord    *cluster.Coordinator
	wrap     *spanHandler
	http     *httpServer
	client   *http.Client
}

func (s coordSetup) stop() {
	s.client.CloseIdleConnections()
	s.http.stop()
	s.coord.Close()
	for _, b := range s.backends {
		b.stop()
	}
}

func buildCoord(pool []string) (coordSetup, error) {
	var s coordSetup
	var urls []string
	for i := 0; i < 2; i++ {
		b, err := startHped("backend")
		if err != nil {
			return s, err
		}
		s.backends = append(s.backends, b)
		urls = append(urls, b.http.url)
	}
	c, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		for _, b := range s.backends {
			b.stop()
		}
		return s, err
	}
	s.coord = c
	s.wrap = &spanHandler{next: c.Handler(), name: "cluster"}
	if s.http, err = serve(s.wrap); err != nil {
		c.Close()
		for _, b := range s.backends {
			b.stop()
		}
		return s, err
	}
	s.client = newClient(1)
	body, _ := json.Marshal(server.SuiteRequest{IDs: pool}) // a struct of strings always marshals
	code, _, resp, err := do(s.client, http.MethodPost, s.http.url+"/v1/suite", body, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("warm-up sweep: status %d: %s", code, resp)
	}
	if err != nil {
		s.stop()
		return coordSetup{}, err
	}
	return s, nil
}

// suiteDraws draws ordered subsets of the pool, never the same one twice.
type suiteDraws struct {
	rng  *rand.Rand
	pool []string
	seen map[string]bool
}

func (d *suiteDraws) next() ([]string, bool) {
	for try := 0; try < 1000; try++ {
		n := 1 + d.rng.Intn(3)
		perm := d.rng.Perm(len(d.pool))[:n]
		ids := make([]string, n)
		for i, k := range perm {
			ids[i] = d.pool[k]
		}
		key := strings.Join(ids, ",")
		if !d.seen[key] {
			d.seen[key] = true
			return ids, true
		}
	}
	return nil, false
}

// memoRunner serves cell results from memory; a miss fetches the cell from
// the coordinator's /v1/runs (a backend cache hit once the union is warm).
type memoRunner struct {
	client *http.Client
	url    string
	cells  map[string]gpu.Result
	bodies map[string][]byte
	specs  map[string]runspec.Spec
}

func (m *memoRunner) run(_ context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
	if r, ok := m.cells[id]; ok {
		return r, nil
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return gpu.Result{}, err
	}
	code, _, resp, err := do(m.client, http.MethodPost, m.url+"/v1/runs", body, nil)
	if err != nil {
		return gpu.Result{}, err
	}
	if code != http.StatusOK {
		return gpu.Result{}, fmt.Errorf("cell %s: status %d", id, code)
	}
	var rr server.RunResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		return gpu.Result{}, err
	}
	m.cells[id], m.bodies[id], m.specs[id] = rr.Result, resp, sp
	return rr.Result, nil
}

// localSuite renders a /v1/suite request single-node and in-process: the
// suite with every cell served from memory, then server.RenderSuiteBody.
func localSuite(m *memoRunner, ids []string) (body []byte, suiteT, renderT time.Duration, err error) {
	req := server.SuiteRequest{IDs: append([]string(nil), ids...)}
	id, err := server.NormalizeSuite(&req)
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	s := experiments.NewSuite(experiments.Options{Seed: req.Seed, Workers: 1, Runner: m.run})
	reports, err := s.Reports(req.IDs)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	body, err = server.RenderSuiteBody(id, req, reports)
	return body, t1.Sub(t0), time.Since(t1), err
}

// coordPass runs closed-loop sweeps for d and returns each one's request,
// latency and body.
type suiteCall struct {
	ids     []string
	latency time.Duration
	cpu     time.Duration // process CPU time: client, coordinator and backends
	status  int
	sum     [sha256.Size]byte // of the body: heap_mb must not count the bodies
	err     error
}

func coordPass(s coordSetup, draws *suiteDraws, d time.Duration, tiny bool, tr *tracer) []suiteCall {
	s.wrap.tr.Store(tr)
	defer s.wrap.tr.Store(nil)
	for _, b := range s.backends {
		// One client: the suite being served is the coordinator's latest span.
		b.wrap.parent = func() int { return int(s.wrap.last.Load()) }
		b.wrap.tr.Store(tr)
	}
	defer func() {
		for _, b := range s.backends {
			b.wrap.tr.Store(nil)
		}
	}()
	var calls []suiteCall
	start := time.Now()
	for len(calls) == 0 || time.Since(start) < d {
		ids, ok := draws.next()
		if !ok {
			break
		}
		body, _ := json.Marshal(server.SuiteRequest{IDs: ids}) // a struct of strings always marshals
		h := tr.begin("request", strings.Join(ids, ","), -1)
		var hdr http.Header
		if h >= 0 {
			hdr = http.Header{spanHeader: {fmt.Sprint(h)}}
		}
		t0, c0 := time.Now(), cpuTime()
		code, _, resp, err := do(s.client, http.MethodPost, s.http.url+"/v1/suite", body, hdr)
		lat, cpu := time.Since(t0), cpuTime()-c0
		tr.end(h)
		calls = append(calls, suiteCall{ids: ids, latency: lat, cpu: cpu, status: code, sum: sha256.Sum256(resp), err: err})
		if tiny && len(calls) == 3 {
			break
		}
	}
	return calls
}

// checkSuites compares every coordinator body with the single-node
// rendering of the same request.
func checkSuites(m *memoRunner, calls []suiteCall, rep *report) (suiteMS, renderMS []float64, err error) {
	for _, c := range calls {
		rep.attempted++
		if c.err != nil || c.status != http.StatusOK {
			rep.fail("suite %v: status %d err %v", c.ids, c.status, c.err)
			continue
		}
		want, st, rt, err := localSuite(m, c.ids)
		if err != nil {
			return nil, nil, err
		}
		suiteMS, renderMS = append(suiteMS, ms(st)), append(renderMS, ms(rt))
		if sha256.Sum256(want) != c.sum {
			rep.fail("suite %v: coordinator body differs from the single-node body", c.ids)
		}
	}
	return suiteMS, renderMS, nil
}

func runCoordSuite(cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := coordPool
	if cfg.tiny {
		pool = []string{"fig10", "fig11", "temporal"}
	}
	s, err := repeatSetup(cfg, rep, 3, func() (coordSetup, error) { return buildCoord(pool) }, coordSetup.stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()

	draws := &suiteDraws{rng: rng, pool: pool, seen: map[string]bool{}}
	d := cfg.duration()
	if cfg.trace {
		d /= 2
	}
	cpu0 := cpuTime()
	calls := coordPass(s, draws, d, cfg.tiny, nil)
	rep.e2e["cpu_ms_per_op"] = ms(cpuTime()-cpu0) / float64(len(calls))
	var lat, cpu []float64
	for _, c := range calls {
		lat = append(lat, ms(c.latency))
		cpu = append(cpu, ms(c.cpu))
	}
	rep.e2e["p50_ms"] = median(cpu)
	// The coordinator caches one body per distinct sweep, so its cache grows
	// with throughput; heap_mb leaves it out so that it measures what a
	// sweep keeps alive elsewhere. The oracle below is built after, so
	// that heap_mb does not count it either.
	rep.e2e["heap_mb"] = liveHeapMB()
	if met, err := scrape(s.client, s.http.url); err == nil {
		rep.e2e["heap_mb"] -= met["hped_cluster_cache_bytes"] / (1 << 20)
	} else {
		return nil, err
	}

	// Fill the single-node oracle's memory from the warm cluster, and check
	// a seeded sample of those cells against in-process runs.
	m := &memoRunner{client: s.client, url: s.http.url, cells: map[string]gpu.Result{},
		bodies: map[string][]byte{}, specs: map[string]runspec.Spec{}}
	if _, _, _, err := localSuite(m, pool); err != nil {
		return nil, err
	}
	env := newSimEnv()
	ids := sortedKeys(m.bodies)
	for _, k := range rng.Perm(len(ids))[:min(4, len(ids))] {
		want, err := expectedRunBody(env, m.specs[ids[k]])
		if err != nil {
			return nil, err
		}
		rep.attempted++
		if !bytes.Equal(want, m.bodies[ids[k]]) {
			rep.fail("cell %s: cluster body differs from the in-process run", ids[k])
		}
	}
	suiteMS, renderMS, err := checkSuites(m, calls, rep)
	if err != nil {
		return nil, err
	}
	rep.quoted = append(rep.quoted, []named{
		{"suite_ms_p50", "ms", median(lat)},
		{"suite_ms_p95", "ms", quantile(lat, 0.95)},
	}...)
	rep.notes = append(rep.notes, fmt.Sprintf("%d sweeps, %d oracle cells", len(calls), len(m.cells)))
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	before, err := scrapeAll(s)
	if err != nil {
		return nil, err
	}
	traced := coordPass(s, draws, d, cfg.tiny, tr)
	after, err := scrapeAll(s)
	if err != nil {
		return nil, err
	}
	if _, _, err := checkSuites(m, traced, rep); err != nil {
		return nil, err
	}
	var tlat []float64
	for _, c := range traced {
		tlat = append(tlat, ms(c.latency))
	}
	L := rep.layer
	L["experiments.local_suite_ms"] = mean(suiteMS)
	L["server.render_ms"] = mean(renderMS)
	n := float64(len(traced))
	delta := func(i int, k string) float64 { return after[i][k] - before[i][k] }
	shards := []float64{}
	total := 0.0
	for _, b := range s.backends {
		v := delta(0, fmt.Sprintf("hped_cluster_shards_total{backend=%q}", b.http.url))
		shards = append(shards, v)
		total += v
	}
	L["cluster.shards_per_suite"] = total / n
	L["cluster.shard_ms_mean"] = 1000 * delta(0, "hped_cluster_shard_latency_seconds_sum") / delta(0, "hped_cluster_shard_latency_seconds_count")
	L["cluster.redispatches"] = delta(0, "hped_cluster_redispatched_total")
	if lo := min(shards[0], shards[1]); lo > 0 {
		L["cluster.ring_skew"] = max(shards[0], shards[1]) / lo
	}
	hits, misses := 0.0, 0.0
	for i := range s.backends {
		hits += delta(i+1, "hped_cache_hits_total")
		misses += delta(i+1, "hped_cache_misses_total")
	}
	L["server.backend_hit_ratio"] = hits / (hits + misses)
	L["trace.overhead_ratio"] = median(tlat) / median(lat)
	L["workload.trace_ms"] = catalogTraceMS()
	tr.finish(cfg, "coord-suite", rep, "request", map[string]string{"request": "client", "cluster": "cluster", "backend": "backend"})
	return rep, nil
}

// scrapeAll reads the coordinator's /metrics, then each backend's.
func scrapeAll(s coordSetup) ([]map[string]float64, error) {
	out := []map[string]float64{}
	for _, url := range append([]string{s.http.url}, s.backends[0].http.url, s.backends[1].http.url) {
		m, err := scrape(s.client, url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
