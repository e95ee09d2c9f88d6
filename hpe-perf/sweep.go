package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hpe/internal/addrspace"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	"hpe/internal/hir"
	hpecore "hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/uvm"
	"hpe/internal/workload"
)

// sweepIDs is what a researcher reproducing the paper's headline results
// runs: the Fig. 10-12 comparisons over the full catalog (six policies, both
// rates) plus the workload-v2 phase and colocation studies.
var sweepIDs = []string{"fig10", "fig11", "fig12", "temporal", "colocation"}

// simEnv is a materialization environment that builds each trace and Belady
// future index once and shares it with every later cell, as
// experiments.Suite does for its own cells.
type simEnv struct {
	mu      sync.Mutex
	traces  map[string]*trace.Trace       // guarded by mu
	futures map[string]*trace.FutureIndex // guarded by mu
	genTime time.Duration                 // guarded by mu; time spent building traces and future indexes
}

func newSimEnv() *simEnv {
	return &simEnv{traces: map[string]*trace.Trace{}, futures: map[string]*trace.FutureIndex{}}
}

func appKey(app workload.App) string { return fmt.Sprintf("%s/%d", app.Abbr, app.Sets) }

func (e *simEnv) trace(app workload.App) *trace.Trace {
	e.mu.Lock()
	defer e.mu.Unlock()
	if tr, ok := e.traces[appKey(app)]; ok {
		return tr
	}
	t0 := time.Now()
	tr := app.Generate()
	tr.Footprint() // prime the lazy footprint before the trace is shared
	e.genTime += time.Since(t0)
	e.traces[appKey(app)] = tr
	return tr
}

func (e *simEnv) future(app workload.App, tr *trace.Trace) *trace.FutureIndex {
	e.mu.Lock()
	defer e.mu.Unlock()
	if fi, ok := e.futures[appKey(app)]; ok {
		return fi
	}
	t0 := time.Now()
	fi := trace.BuildFutureIndex(tr)
	e.genTime += time.Since(t0)
	e.futures[appKey(app)] = fi
	return fi
}

func (e *simEnv) generated() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.genTime
}

func (e *simEnv) env() runspec.Env { return runspec.Env{Trace: e.trace, Future: e.future} }

// enumerate lists the distinct cells the experiments request, in request
// order, by running them against a Runner that simulates nothing. Its
// placeholder result is non-zero so that the reports' ratios and geometric
// means stay defined; the sweep's experiments choose cells without looking
// at results.
func enumerate(seed int64, ids []string) ([]runspec.Spec, error) {
	var cells []runspec.Spec
	s := experiments.NewSuite(experiments.Options{Seed: seed, Workers: 1,
		Runner: func(_ context.Context, sp runspec.Spec, _ string) (gpu.Result, error) {
			cells = append(cells, sp)
			return gpu.Result{Cycles: 1, Accesses: 1, IPC: 1, Faults: 1, Evictions: 1}, nil
		}})
	if _, err := s.Reports(ids); err != nil {
		return nil, err
	}
	return cells, nil
}

// sweepSetup is the paper-sweep's set-up: the list of distinct cells the
// sweep simulates, from the experiments' own enumeration.
type sweepSetup struct {
	cells []runspec.Spec
	// dedup is distinct cells over the cells the experiments would run
	// each on its own: the share of work the suite's cache leaves.
	dedup float64
}

func buildSweep(seed int64, ids []string) (sweepSetup, error) {
	cells, err := enumerate(seed, ids)
	if err != nil {
		return sweepSetup{}, err
	}
	alone := 0
	for _, id := range ids {
		c, err := enumerate(seed, []string{id})
		if err != nil {
			return sweepSetup{}, err
		}
		alone += len(c)
	}
	return sweepSetup{cells: cells, dedup: float64(len(cells)) / float64(alone)}, nil
}

// cellRun is one simulated cell. The timings are set by the traced sweep
// only.
type cellRun struct {
	id     string
	policy string
	res    gpu.Result
	mat    time.Duration // Spec.Materialize, less trace and index building
	run    time.Duration // gpu.Run
}

type sweepRun struct {
	wall, cpu time.Duration
	// cellCPU is the process CPU time of each simulated cell, in run
	// order: the untraced sweep reads it at each Progress line.
	cellCPU []float64
	// gen is the time spent building traces and future indexes (traced
	// sweeps only).
	gen     time.Duration
	cells   []cellRun
	reports []experiments.Report
	// suite is the sweep's suite, kept by the caller for the last sweep
	// only, so that heap_mb sees what a finished sweep holds.
	suite *experiments.Suite
}

// suiteSweep runs the experiments as a researcher does: one fresh
// experiments.Suite, serial (Workers: 1), with no Runner, so the program
// synthesizes its traces, builds its Belady indexes and simulates every
// cell itself. The suite calls Progress once per simulated cell; the CPU
// time between two calls is that cell's cost.
func suiteSweep(seed int64, ids []string, cells []runspec.Spec) (sweepRun, error) {
	var run sweepRun
	c0 := cpuTime()
	last := c0
	run.suite = experiments.NewSuite(experiments.Options{Seed: seed, Workers: 1, Progress: func(string) {
		now := cpuTime()
		run.cellCPU = append(run.cellCPU, ms(now-last))
		last = now
	}})
	t0 := time.Now()
	reps, err := run.suite.Reports(ids)
	run.wall, run.cpu = time.Since(t0), cpuTime()-c0
	if err != nil {
		return run, fmt.Errorf("sweep: %w", err)
	}
	run.reports = reps
	// The suite memoizes every cell it simulated, so reading the results
	// back simulates nothing, provided the set-up's enumeration named
	// exactly the cells the sweep ran.
	if got := run.suite.CachedRuns(); got != len(cells) || len(run.cellCPU) != len(cells) {
		return run, fmt.Errorf("sweep simulated %d cells (%d cached), set-up enumerated %d", len(run.cellCPU), got, len(cells))
	}
	for _, sp := range cells {
		run.cells = append(run.cells, cellRun{id: sp.ID(), policy: sp.Policy, res: run.suite.RunSpec(sp)})
	}
	return run, nil
}

// tracedSweep runs the same sweep with every cell delegated to a Runner that
// does what the suite does for a cell (Materialize over a fresh environment
// of its own, then gpu.Run), timing each call, recording spans and wrapping
// each policy.
func tracedSweep(seed int64, ids []string, n int, tr *tracer, ps *policyStats) (sweepRun, error) {
	var run sweepRun
	var runErr error
	cur := -1
	env := newSimEnv()
	c0 := cpuTime()
	suite := experiments.NewSuite(experiments.Options{Seed: seed, Workers: 1,
		Runner: func(_ context.Context, sp runspec.Spec, id string) (gpu.Result, error) {
			t0, g0 := time.Now(), env.generated()
			m, err := sp.Materialize(env.env())
			if err != nil {
				runErr = err
				return gpu.Result{}, err
			}
			t1, g1 := time.Now(), env.generated()
			r := gpu.Run(m.Config, m.Trace, ps.wrap(m.Policy))
			t2 := time.Now()
			if h, ok := m.Policy.(*hpecore.HPE); ok {
				// gpu.Run reads HPE stats only from an unwrapped *hpe.HPE.
				st := h.Stats()
				r.HPE = &st
			}
			tr.record("materialize", id, cur, t0, t1)
			tr.record("gpu.run", id, cur, t1, t2)
			run.cells = append(run.cells, cellRun{id: id, policy: sp.Policy, res: r, mat: t1.Sub(t0) - (g1 - g0), run: t2.Sub(t1)})
			return r, nil
		}})
	root := tr.begin("sweep", fmt.Sprint(n), -1)
	t0 := time.Now()
	for _, id := range ids {
		cur = tr.begin("experiment", id, root)
		reps, err := suite.Reports([]string{id})
		tr.end(cur)
		if err == nil {
			err = runErr
		}
		if err != nil {
			return run, fmt.Errorf("sweep %s: %w", id, err)
		}
		run.reports = append(run.reports, reps...)
	}
	run.wall, run.cpu = time.Since(t0), cpuTime()-c0
	run.gen = env.generated()
	tr.end(root)
	return run, nil
}

// accesses sums the simulated accesses of a sweep's distinct cells.
func (s sweepRun) accesses() float64 {
	sum := 0.0
	for _, c := range s.cells {
		sum += float64(c.res.Accesses)
	}
	return sum
}

// digest hashes every cell's full Result in canonical (ID) order.
func (s sweepRun) digest() string {
	cells := append([]cellRun(nil), s.cells...)
	sort.Slice(cells, func(i, j int) bool { return cells[i].id < cells[j].id })
	h := sha256.New()
	for _, c := range cells {
		b, err := json.Marshal(c.res)
		if err != nil {
			b = []byte(fmt.Sprintf("unmarshalable: %v", err))
		}
		fmt.Fprintf(h, "%s %s\n", c.id, b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenReport mirrors the report objects of results.json.
type goldenReport struct {
	ID      string             `json:"id"`
	Metrics map[string]float64 `json:"metrics"`
}

// goldenTolerance is golden_test.go's: it absorbs floating-point drift
// across Go releases, not simulator changes.
const goldenTolerance = 1e-6

func loadGolden(path string) (map[string]map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reps []goldenReport
	if err := json.Unmarshal(raw, &reps); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string]float64{}
	for _, r := range reps {
		out[r.ID] = r.Metrics
	}
	return out, nil
}

// checkSweepReports compares a sweep's headline metrics with the committed
// goldens: fig10 and fig11 against results.json at every seed, fig12 at
// seed 1 only (its Random policy is seeded), and the seed-independent
// temporal and colocation studies against hpe-perf/golden.json.
func checkSweepReports(cfg config, reports []experiments.Report, rep *report) error {
	results, err := loadGolden(filepath.Join(cfg.root, "results.json"))
	if err != nil {
		return err
	}
	extra, err := loadGolden(filepath.Join(cfg.root, "hpe-perf", "golden.json"))
	if err != nil {
		return err
	}
	for k, v := range extra {
		results[k] = v
	}
	for _, r := range reports {
		if r.ID == "fig12" && cfg.seed != 1 {
			continue
		}
		want, ok := results[r.ID]
		if !ok {
			continue // not a committed headline (tiny sweeps use a subset)
		}
		rep.attempted++
		if msg := compareMetrics(want, r.Metrics); msg != "" {
			rep.fail("%s: %s", r.ID, msg)
		}
	}
	return nil
}

func compareMetrics(want, got map[string]float64) string {
	for k, gv := range want {
		if math.Abs(gv) >= math.MaxFloat64/2 {
			continue // ±Inf clamped by the JSON writer; not comparable
		}
		mv, ok := got[k]
		if !ok {
			return fmt.Sprintf("metric %q missing", k)
		}
		if math.Abs(mv-gv) > goldenTolerance*math.Max(1, math.Abs(gv)) {
			return fmt.Sprintf("metric %q = %v, golden %v", k, mv, gv)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok && !math.IsNaN(v) {
			return fmt.Sprintf("metric %q not in golden file", k)
		}
	}
	return ""
}

func runPaperSweep(cfg config) (*report, error) {
	rep := newReport()
	ids := sweepIDs
	if cfg.tiny {
		ids = []string{"fig10", "temporal"}
	}
	setup, err := repeatSetup(cfg, rep, 5, func() (sweepSetup, error) { return buildSweep(cfg.seed, ids) }, nil)
	if err != nil {
		return nil, err
	}

	// measure runs whole sweeps until the next one would overrun d. It
	// keeps the suite of the last sweep only.
	measure := func(d time.Duration, sweep func(n int) (sweepRun, error)) ([]sweepRun, error) {
		var runs []sweepRun
		start := time.Now()
		for len(runs) == 0 || time.Since(start)+runs[len(runs)-1].wall <= d {
			if len(runs) > 0 {
				runs[len(runs)-1].suite = nil
			}
			r, err := sweep(len(runs))
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
			if cfg.tiny {
				break
			}
		}
		return runs, nil
	}
	d := cfg.duration()
	if cfg.trace {
		d /= 2
	}
	cpu0 := cpuTime()
	runs, err := measure(d, func(int) (sweepRun, error) { return suiteSweep(cfg.seed, ids, setup.cells) })
	if err != nil {
		return nil, err
	}
	rep.e2e["cpu_ms_per_op"] = ms(cpuTime()-cpu0) / float64(len(runs)*len(setup.cells))
	if err := checkSweepReports(cfg, runs[0].reports, rep); err != nil {
		return nil, err
	}
	want := runs[0].digest()
	for _, r := range runs[1:] {
		rep.attempted++
		if got := r.digest(); got != want {
			rep.fail("sweep digest %s differs from first sweep %s", got, want)
		}
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d sweeps of %d distinct cells, result digest %s", len(runs), len(setup.cells), want))

	var cellCPU, rates, sweepCPU, sweepWall []float64
	for _, r := range runs {
		cellCPU = append(cellCPU, r.cellCPU...)
		rates = append(rates, r.accesses()/r.wall.Seconds())
		sweepCPU = append(sweepCPU, r.cpu.Seconds())
		sweepWall = append(sweepWall, r.wall.Seconds())
	}
	rep.e2e["p50_ms"] = median(cellCPU)
	rep.quoted = append(rep.quoted, []named{
		{"sim_maccess_per_s", "M/s", median(rates) / 1e6},
		{"sweep_s_p50", "s", median(sweepWall)},
	}...)
	// The live heap holds the last sweep's suite (its traces, indexes and
	// results), whatever the number of sweeps.
	last := runs[len(runs)-1].suite
	runs = nil
	rep.e2e["heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	rep.quoted = append(rep.quoted, named{"heap_mb", "MB", rep.e2e["heap_mb"]})
	if !cfg.trace {
		return rep, nil
	}

	tr := newTracer()
	ps := &policyStats{}
	traced, err := measure(d, func(n int) (sweepRun, error) { return tracedSweep(cfg.seed, ids, n, tr, ps) })
	if err != nil {
		return nil, err
	}
	for _, r := range traced {
		rep.attempted++
		if got := r.digest(); got != want {
			rep.fail("traced sweep digest %s differs from untraced %s", got, want)
		}
	}
	sweepLayers(rep, setup, traced, ps)
	var tracedCPU []float64
	for _, r := range traced {
		tracedCPU = append(tracedCPU, r.cpu.Seconds())
	}
	rep.layer["trace.overhead_ratio"] = median(tracedCPU) / median(sweepCPU)
	tr.finish(cfg, "paper-sweep", rep, "sweep", map[string]string{"experiment": "experiments", "materialize": "runspec"})
	return rep, nil
}

// sweepLayers fills the per-layer metrics of traced sweeps.
func sweepLayers(rep *report, setup sweepSetup, runs []sweepRun, ps *policyStats) {
	L := rep.layer
	n := float64(len(runs))
	L["experiments.cells"] = float64(len(setup.cells))
	L["experiments.dedup_ratio"] = setup.dedup

	var runMS, matUS []float64
	var runTotal, gen time.Duration
	perPolicy := map[string][]float64{}
	for _, r := range runs {
		gen += r.gen
		for _, c := range r.cells {
			runMS = append(runMS, ms(c.run))
			matUS = append(matUS, float64(c.mat)/float64(time.Microsecond))
			perPolicy[c.policy] = append(perPolicy[c.policy], ms(c.run))
			runTotal += c.run
		}
	}
	L["workload.trace_ms"] = ms(gen) / n
	L["runspec.materialize_us"] = mean(matUS)
	L["gpu.run_ms_p50"] = median(runMS)
	L["gpu.run_ms_p95"] = quantile(runMS, 0.95)
	L["gpu.ns_per_access"] = float64(runTotal) / (n * runs[0].accesses())
	for _, p := range experiments.ComparisonPolicies {
		L["gpu.run_ms."+p] = mean(perPolicy[p])
	}
	var policyNS int64
	for m, name := range policyMethods {
		L["policy.calls."+name] = float64(ps.calls[m]) / n
		L["policy.ns."+name] = float64(ps.ns[m]) / n
	}
	for _, v := range ps.ns {
		policyNS += v
	}
	L["policy.share"] = float64(policyNS) / float64(runTotal)
	L["self_ms.gpu"] = ms(runTotal-time.Duration(policyNS)) / n
	L["self_ms.policy"] = ms(time.Duration(policyNS)) / n
	modelCounters(L, runs[0].cells)
}

// modelCounters sums the simulator's deterministic statistics over one
// sweep's distinct cells. A change that only makes the program faster must
// leave every one of them unchanged.
func modelCounters(L map[string]float64, cells []cellRun) {
	var acc, cyc, faults, ev, coal, batched, walks, hits, merges, l1h, l1m, l2h, l2m, drains, conflicts, searches, comps float64
	for _, c := range cells {
		r := c.res
		acc += float64(r.Accesses)
		cyc += float64(r.Cycles)
		faults += float64(r.Faults)
		ev += float64(r.Evictions)
		coal += float64(r.Coalesced)
		batched += float64(r.Driver.Batched)
		walks += float64(r.Walks)
		hits += float64(r.WalkHits)
		merges += float64(r.WalkMerges)
		l1h, l1m = l1h+float64(r.L1Hits), l1m+float64(r.L1Misses)
		l2h, l2m = l2h+float64(r.L2Hits), l2m+float64(r.L2Misses)
		if r.HIR != nil {
			drains += float64(r.HIR.Drains)
			conflicts += float64(r.HIR.Conflicts)
		}
		if r.HPE != nil {
			searches += float64(r.HPE.Searches)
			comps += float64(r.HPE.Comparisons)
		}
	}
	L["gpu.accesses"] = acc
	L["sim.cycles"] = cyc
	L["uvm.faults"] = faults
	L["uvm.evictions"] = ev
	L["uvm.evictions_per_fault"] = ev / faults
	L["uvm.coalesced"] = coal
	L["uvm.batched"] = batched
	L["gpu.walks"] = walks
	L["gpu.walk_hits"] = hits
	L["gpu.walk_merges"] = merges
	L["tlb.l1_hit_ratio"] = l1h / (l1h + l1m)
	L["tlb.l2_hit_ratio"] = l2h / (l2h + l2m)
	L["hir.drains"] = drains
	L["hir.conflicts"] = conflicts
	L["hpe.mean_comparisons"] = comps / searches
}

// policyMethods names the policy.Policy methods the wrapper times, in the
// index order of policyStats.
var policyMethods = []string{"OnWalkHit", "OnFault", "OnMapped", "SelectVictim", "OnEvicted", "OnHitBatch"}

const (
	mWalkHit = iota
	mFault
	mMapped
	mVictim
	mEvicted
	mHitBatch
)

// policyStats counts and times policy calls. Sweeps are serial, so it
// needs no lock.
type policyStats struct {
	calls [6]uint64
	ns    [6]int64
}

func (s *policyStats) add(m int, t0 time.Time) {
	s.calls[m]++
	s.ns[m] += int64(time.Since(t0))
}

// wrap returns a forwarding policy that times every call. A policy that
// consumes HIR drains keeps doing so: the wrapper then also implements
// uvm.HitBatchReceiver, so the driver wires the identical simulation.
func (s *policyStats) wrap(in policy.Policy) policy.Policy {
	tp := &timedPolicy{in: in, st: s}
	if recv, ok := in.(uvm.HitBatchReceiver); ok {
		return &timedBatchPolicy{timedPolicy: tp, recv: recv}
	}
	return tp
}

type timedPolicy struct {
	in policy.Policy
	st *policyStats
}

func (p *timedPolicy) Name() string { return p.in.Name() }

func (p *timedPolicy) OnWalkHit(pg addrspace.PageID, seq int) {
	t0 := time.Now()
	p.in.OnWalkHit(pg, seq)
	p.st.add(mWalkHit, t0)
}

func (p *timedPolicy) OnFault(pg addrspace.PageID, seq int) {
	t0 := time.Now()
	p.in.OnFault(pg, seq)
	p.st.add(mFault, t0)
}

func (p *timedPolicy) OnMapped(pg addrspace.PageID, seq int) {
	t0 := time.Now()
	p.in.OnMapped(pg, seq)
	p.st.add(mMapped, t0)
}

func (p *timedPolicy) SelectVictim() addrspace.PageID {
	t0 := time.Now()
	v := p.in.SelectVictim()
	p.st.add(mVictim, t0)
	return v
}

func (p *timedPolicy) OnEvicted(pg addrspace.PageID) {
	t0 := time.Now()
	p.in.OnEvicted(pg)
	p.st.add(mEvicted, t0)
}

type timedBatchPolicy struct {
	*timedPolicy
	recv uvm.HitBatchReceiver
}

func (p *timedBatchPolicy) OnHitBatch(recs []hir.Record) {
	t0 := time.Now()
	p.recv.OnHitBatch(recs)
	p.st.add(mHitBatch, t0)
}
