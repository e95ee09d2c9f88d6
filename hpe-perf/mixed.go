package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
	"unsafe"

	"hpe/internal/runspec"
	"hpe/internal/workload"
)

// Traffic parameters of hped-mixed, in the manner of hped-hot's: each says
// whether it is derived or assumed.
const (
	// mixedHitRate is the hit stream's offered rate, req/s. Derived:
	// hped-hot's base rung, so that the hit latencies of the two workloads
	// compare.
	mixedHitRate = 0.10 * closedLoopHitRate
	// meanColdRunMS is hped's mean run latency over the cold stream below,
	// measured from /metrics (hped_run_latency_seconds sum/count) on a
	// 2-vCPU host: 14.8 ms at seed 1 and 12.7 ms at seed 2, rounded up.
	meanColdRunMS = 15
	// coldCoreShare is the share of the host's two cores the cold stream's
	// simulations take. Assumed: enough to contend with the hits, far
	// below the two simulation workers' capacity, so that admission never
	// rejects (at most two runs wait, against a queue of eight).
	coldCoreShare = 0.1
	hostCores     = 2
	// mixedColdRate is the cold stream's rate in specs/s. Derived from
	// the three above: 0.1 × 2 cores / 15 ms = 13.3/s.
	mixedColdRate = coldCoreShare * hostCores * 1000 / meanColdRunMS
	// dupEvery sends a duplicate of every dupEvery-th cold spec. Assumed.
	dupEvery = 4
	// dupDelay is how long after its original a duplicate is due.
	// Derived: well below the shortest cold answer (1.6 ms measured at
	// seed 3), so that the duplicate usually finds the original in flight
	// and coalesces (a sender held up behind a slow answer can still send
	// it late); the mixed run prints the shortest cold latency it saw
	// (cold_ms_min) to confirm it.
	dupDelay = 250 * time.Microsecond
)

// coldPolicies and coldScenarios span the cold stream: every catalog app
// under six policies at a random rate and seed, and a share of phase and
// tenant scenario sources. Assumed: the comparison policies but Belady
// (ideal), plus FIFO, and one scenario of each kind the workload package
// offers.
var coldPolicies = []string{"lru", "hpe", "rrip", "clockpro", "random", "fifo"}

var coldScenarios = []runspec.Spec{
	{Phases: "HOT:16,HOT:32,HOT:16"},
	{Phases: "PAT:24,HSD:48,PAT:24"},
	{Phases: "STN:32,STN:8,STN:32"},
	{Tenants: "HSD,BFS"},
	{Tenants: "HOT,NW", Interleave: 256},
}

// coldRates are the oversubscription rates cold specs cycle through.
// Assumed: the paper's 50% and 75% and two rates beside them.
var coldRates = []int{50, 60, 75, 90}

// coldStream yields never-seen specs in rounds. Each round sends every
// source once, source j under policy j+round and rate j+round (cycling
// through coldPolicies and coldRates), so the specs of a round, and the
// simulation work they cost, are the same at every seed; the seed orders
// each round and draws the seed field, from a range the warm set (seed 1)
// never uses, which makes each spec distinct. A repeat is redrawn.
type coldStream struct {
	rng     *rand.Rand
	sources []runspec.Spec
	order   []int // the current round's source order
	n       int
	seen    map[string]bool
}

func newColdStream(rng *rand.Rand) *coldStream {
	c := &coldStream{rng: rng, seen: map[string]bool{}}
	for _, app := range workload.Catalog() {
		c.sources = append(c.sources, runspec.Spec{App: app.Abbr})
	}
	// Scenario sources take about a quarter of the stream (assumed).
	for len(c.sources) < 4*len(workload.Catalog())/3 {
		c.sources = append(c.sources, coldScenarios[len(c.sources)%len(coldScenarios)])
	}
	return c
}

func (c *coldStream) next() (runspec.Spec, spec, error) {
	for {
		k := c.n
		c.n++
		round, pos := k/len(c.sources), k%len(c.sources)
		if pos == 0 {
			c.order = c.rng.Perm(len(c.sources))
		}
		j := c.order[pos]
		sp := c.sources[j]
		sp.Policy = coldPolicies[(j+round)%len(coldPolicies)]
		sp.Rate = coldRates[(j+round)%len(coldRates)]
		sp.Seed = 2 + c.rng.Int63n(1<<40)
		bodies, id, err := wireVariants(sp)
		if err != nil {
			return sp, spec{}, err
		}
		if !c.seen[id] {
			c.seen[id] = true
			return sp, spec{id: id, bodies: bodies}, nil
		}
	}
}

// mixedSchedule interleaves the hit stream with the cold stream and its
// duplicates.
func mixedSchedule(rng *rand.Rand, d time.Duration, warm []spec, tiny bool) ([]request, []runspec.Spec, []spec, error) {
	hitRate, coldRate := float64(mixedHitRate), float64(mixedColdRate)
	if tiny {
		hitRate, coldRate = hitRate/20, coldRate*2
	}
	picker := newHitPicker(rng, len(warm))
	var reqs []request
	poisson(rng, 0, d, hitRate, func(due time.Duration) { reqs = append(reqs, picker.request(due, 0, warm)) })
	cs := newColdStream(rng)
	var coldSpecs []runspec.Spec
	var cold []spec
	var err error
	stratified(rng, d, coldRate, func(due time.Duration) {
		sp, s, e := cs.next()
		if e != nil {
			err = e
			return
		}
		k := len(cold)
		coldSpecs, cold = append(coldSpecs, sp), append(cold, s)
		reqs = append(reqs, request{due: due, method: http.MethodPost, path: "/v1/runs", body: s.bodies[0], class: classCold, key: k})
		if k%dupEvery == 0 {
			reqs = append(reqs, request{due: due + dupDelay, method: http.MethodPost, path: "/v1/runs",
				body: s.bodies[1+rng.Intn(len(s.bodies)-1)], class: classDup, key: k})
		}
	})
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].due < reqs[b].due })
	return reqs, coldSpecs, cold, err
}

// mixedPass plays the mixed schedule. Hits must come from the cache with
// the warmed body; a cold spec's first answer is kept, and every other
// answer for it (a duplicate) must equal that one. It also returns the
// pass's CPU cost (see drive).
func mixedPass(s hotSetup, reqs []request, cold []spec, tr *tracer, rep *report) ([]sample, []rungCost) {
	s.h.wrap.tr.Store(tr)
	defer s.h.wrap.tr.Store(nil)
	var mu sync.Mutex
	bodies := make([][]byte, len(cold))
	out, costs := drive(s.client, s.h.http.url, reqs, tr, func(i int, body []byte) bool {
		r := reqs[i]
		if r.class == classHit {
			return bytes.Equal(body, s.specs[r.key].want)
		}
		mu.Lock()
		defer mu.Unlock()
		if bodies[r.key] == nil {
			bodies[r.key] = body
			return true
		}
		return bytes.Equal(body, bodies[r.key])
	})
	for i, r := range reqs {
		if r.class == classHit {
			checkHit(r, out[i], s.specs, rep)
			continue
		}
		o := out[i]
		rep.attempted++
		switch {
		case o.err != nil:
			rep.fail("cold %s: %v", cold[r.key].id, o.err)
		case o.status != http.StatusOK:
			rep.fail("cold %s: status %d", cold[r.key].id, o.status)
		case !o.bodyOK:
			rep.fail("cold %s: duplicate's body differs from the original's", cold[r.key].id)
		}
	}
	for k := range cold {
		cold[k].want = bodies[k]
	}
	return out, costs
}

// verifyCold checks a seeded sample of cold answers byte for byte against
// in-process runs of the same specs.
func verifyCold(rng *rand.Rand, specs []runspec.Spec, cold []spec, n int, rep *report) error {
	env := newSimEnv()
	for _, k := range rng.Perm(len(cold))[:min(n, len(cold))] {
		want, err := expectedRunBody(env, specs[k])
		if err != nil {
			return err
		}
		rep.attempted++
		if !bytes.Equal(want, cold[k].want) {
			rep.fail("hped body for cold %s differs from the in-process run", cold[k].id)
		}
	}
	return nil
}

// mixedResult is what one mixed pass measured.
type mixedResult struct {
	hit        rungStats
	cold       []float64 // ms, answers from simulate or coalesce
	simulated  []float64 // ms, answers from simulate
	accesses   float64   // simulated accesses of the cold specs
	runSeconds float64   // the server's summed run latency over the pass
	runs       float64
	dups, coal int
	costs      []rungCost // the pass's CPU cost: one rung
	heapGrowth float64    // MB the server kept over the pass
}

func measureMixed(s hotSetup, reqs []request, cold []spec, tr *tracer, rep *report) (mixedResult, []sample, map[string]float64, map[string]float64, error) {
	var m mixedResult
	heap0 := liveHeapMB()
	before, err := scrape(s.client, s.h.http.url)
	if err != nil {
		return m, nil, nil, nil, err
	}
	out, costs := mixedPass(s, reqs, cold, tr, rep)
	m.costs = costs
	after, err := scrape(s.client, s.h.http.url)
	if err != nil {
		return m, nil, nil, nil, err
	}
	// The growth leaves out what the pass itself allocated and keeps: its
	// samples and the cold answers held for the checks.
	kept := float64(len(out)) * float64(unsafe.Sizeof(sample{}))
	for _, c := range cold {
		kept += float64(len(c.want))
	}
	m.heapGrowth = liveHeapMB() - heap0 - kept/(1<<20)
	m.hit = summarize(reqs, out, 0, mixedHitRate, func(i int) bool { return reqs[i].class == classHit })
	for i, r := range reqs {
		if r.class == classHit || out[i].err != nil {
			continue
		}
		if r.class == classDup {
			m.dups++
		}
		switch out[i].source {
		case "coalesce":
			m.coal++
			m.cold = append(m.cold, ms(out[i].latency(r)))
		case "simulate":
			m.cold = append(m.cold, ms(out[i].latency(r)))
			m.simulated = append(m.simulated, ms(out[i].latency(r)))
		}
	}
	for _, c := range cold {
		var rr struct {
			Result struct{ Accesses uint64 }
		}
		if json.Unmarshal(c.want, &rr) == nil {
			m.accesses += float64(rr.Result.Accesses)
		}
	}
	m.runSeconds = after["hped_run_latency_seconds_sum"] - before["hped_run_latency_seconds_sum"]
	m.runs = after["hped_run_latency_seconds_count"] - before["hped_run_latency_seconds_count"]
	return m, out, before, after, nil
}

func runHpedMixed(cfg config) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	s, err := repeatSetup(cfg, rep, 5, func() (hotSetup, error) { return buildHot(cfg.tiny) }, hotSetup.stop)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	if err := verifyWarm(s, rng, 4, rep); err != nil {
		return nil, err
	}
	d := cfg.duration()
	if cfg.trace {
		d /= 2
	}
	reqs, coldSpecs, cold, err := mixedSchedule(rng, d, s.specs, cfg.tiny)
	if err != nil {
		return nil, err
	}
	m, _, _, _, err := measureMixed(s, reqs, cold, nil, rep)
	if err != nil {
		return nil, err
	}
	cpuNote(rep, m.costs, reqs)
	if err := verifyCold(rng, coldSpecs, cold, 6, rep); err != nil {
		return nil, err
	}
	rep.e2e["p50_ms"] = median(m.hit.service)
	rep.quoted = append(rep.quoted, []named{
		{"req_ms_p50", "ms", m.hit.p50},
		{"req_ms_p99", "ms", m.hit.p99},
		{"req_ms_p99_windowed", "ms", m.hit.p99w},
		{"cold_ms_p50", "ms", median(m.cold)},
		{"cold_ms_p95", "ms", quantile(m.cold, 0.95)},
		{"cold_ms_min", "ms", quantile(m.cold, 0)},
		{"sim_maccess_per_s", "M/s", m.accesses / m.runSeconds / 1e6},
	}...)
	rep.notes = append(rep.notes, fmt.Sprintf("hits=%d cold=%d duplicates=%d coalesced=%d server runs=%.0f",
		len(m.hit.latencies), len(cold), m.dups, m.coal, m.runs))
	// heap_mb counts what the server keeps, not the generator's schedule,
	// samples and the answers held for the checks.
	reqs, coldSpecs, cold, m = nil, nil, nil, mixedResult{}
	rep.e2e["heap_mb"] = liveHeapMB()
	rep.quoted = append(rep.quoted, named{"heap_mb", "MB", rep.e2e["heap_mb"]})
	if !cfg.trace {
		return rep, nil
	}

	// The traced pass sends a fresh cold stream: its specs must be unseen.
	tr := newTracer()
	reqs2, coldSpecs2, cold2, err := mixedSchedule(rng, d, s.specs, cfg.tiny)
	if err != nil {
		return nil, err
	}
	t, out, before, after, err := measureMixed(s, reqs2, cold2, tr, rep)
	if err != nil {
		return nil, err
	}
	if err := verifyCold(rng, coldSpecs2, cold2, 2, rep); err != nil {
		return nil, err
	}
	L := rep.layer
	L["loadgen.late_ms_p99.r0"] = t.hit.lateP99
	L["loadgen.backlog_max.r0"] = float64(t.hit.backlog)
	L["server.run_ms_mean"] = 1000 * t.runSeconds / t.runs
	L["server.queue_wait_ms_est"] = mean(t.simulated) - L["server.run_ms_mean"]
	L["server.heap_kb_per_spec"] = 1024 * t.heapGrowth / float64(len(cold2))
	if t.dups > 0 {
		L["flight.coalesce_ratio"] = float64(t.coal) / float64(t.dups)
	}
	httpLayers(L, out)
	cacheLayers(L, out, before, after)
	L["trace.overhead_ratio"] = median(t.hit.service) / rep.e2e["p50_ms"]
	L["workload.trace_ms"] = catalogTraceMS()
	tr.finish(cfg, "hped-mixed", rep, "request", map[string]string{"request": "client", "server": "server"})
	return rep, nil
}
