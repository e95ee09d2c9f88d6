// Package hpe is a Go reproduction of "HPE: Hierarchical Page Eviction
// Policy for Unified Memory in GPUs" (Yu, Childers, Huang, Qian, Wang;
// IEEE TCAD 2019): a discrete-event GPU unified-memory simulator, the HPE
// eviction policy, the paper's comparison policies (LRU, Random, RRIP,
// CLOCK-Pro, Belady-MIN "Ideal", plus FIFO and LFU), synthetic generators
// for the 23 Table II workloads, and a harness that regenerates every table
// and figure of the evaluation.
//
// This package is the public facade. Quick start:
//
//	app, _ := hpe.WorkloadByAbbr("HSD")        // hotspot3D, Type II
//	tr := app.Generate()                       // canonical reference string
//	capacity := tr.Footprint() * 75 / 100      // 75% oversubscription
//
//	lru := hpe.Simulate(hpe.SystemConfig(capacity), tr, hpe.NewLRU())
//	hp := hpe.SimulateHPE(hpe.SystemConfig(capacity), tr, hpe.DefaultHPEConfig())
//	fmt.Printf("speedup %.2fx\n", hp.IPC/lru.IPC)
//
// The full evaluation (the run matrix shards across Workers goroutines;
// reports are byte-identical at any worker count, and Workers: 1 is the
// serial debugging path):
//
//	suite := hpe.NewSuite(hpe.SuiteOptions{Workers: runtime.GOMAXPROCS(0)})
//	for _, rep := range suite.All() { fmt.Println(rep) }
//
// Architecture (bottom-up): internal/sim (event engine), internal/addrspace
// (pages and page sets), internal/trace (reference strings + Belady oracle
// index), internal/workload (Fig. 2 pattern generators, Table II catalog),
// internal/tlb + internal/mem + internal/hir (GPU-side state), internal/uvm
// (host driver: fault queue, HIR drains), internal/policy (baselines),
// internal/hpe (the contribution), internal/gpu (the simulator),
// internal/experiments (the per-figure harness). See DESIGN.md.
package hpe

import (
	"context"

	"hpe/internal/addrspace"
	"hpe/internal/experiments"
	"hpe/internal/gpu"
	hpecore "hpe/internal/hpe"
	"hpe/internal/policy"
	"hpe/internal/probe"
	"hpe/internal/runspec"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// Core vocabulary re-exported from the internal packages.
type (
	// PageID identifies a 4-KB virtual page.
	PageID = addrspace.PageID
	// SetID identifies a page set (16 virtually contiguous pages by default).
	SetID = addrspace.SetID
	// Trace is a page-granularity reference string with kernel barriers.
	Trace = trace.Trace
	// App is one Table II application model.
	App = workload.App
	// PatternType is the Fig. 2 access-pattern taxonomy.
	PatternType = workload.PatternType
	// Config is the simulated-system configuration (Table I).
	Config = gpu.Config
	// Result summarises one simulation run.
	Result = gpu.Result
	// Policy is the eviction-policy contract of the UVM driver.
	Policy = policy.Policy
	// HPEConfig parameterises the HPE policy (Section IV).
	HPEConfig = hpecore.Config
	// HPEStats is HPE's internal bookkeeping snapshot.
	HPEStats = hpecore.Stats
	// RRIPConfig parameterises the enhanced RRIP baseline.
	RRIPConfig = policy.RRIPConfig
	// ReplayResult is a timing-free reference-string replay summary.
	ReplayResult = policy.ReplayResult
	// Suite runs the paper's experiments with shared caching. It is safe
	// for concurrent use; see the experiments package comment for the
	// concurrency contract.
	Suite = experiments.Suite
	// SuiteOptions scales the experiment suite. Workers sets the number of
	// concurrent simulation workers (0/1 = serial, identical output).
	SuiteOptions = experiments.Options
	// Report is one experiment's rendered output and headline metrics.
	Report = experiments.Report
	// RunSpec is the canonical, content-addressed description of one
	// simulation — the same identity the experiment suite, hped, and the
	// CLIs share. Build one, then hand it to Run. See DESIGN.md §12.
	RunSpec = runspec.Spec
	// RunTuning is the RunSpec's sensitivity-knob block (suite-internal
	// studies; the zero value is the paper configuration).
	RunTuning = runspec.Tuning
	// RunEnv supplies trace/future-index caches to Run; the zero value
	// generates everything on demand.
	RunEnv = runspec.Env
	// Scenario is a named workload-v2 preset: a temporal phase schedule or
	// a multi-tenant colocation, ready to drop into a RunSpec.
	Scenario = workload.Scenario
)

// Pattern type constants (Fig. 2).
const (
	PatternStreaming           = workload.PatternStreaming
	PatternThrashing           = workload.PatternThrashing
	PatternPartRepetitive      = workload.PatternPartRepetitive
	PatternMostRepetitive      = workload.PatternMostRepetitive
	PatternRepetitiveThrashing = workload.PatternRepetitiveThrashing
	PatternRegionMoving        = workload.PatternRegionMoving
	PatternTemporal            = workload.PatternTemporal
	PatternColocated           = workload.PatternColocated
)

// Workloads returns the 23 Table II application models.
func Workloads() []App { return workload.Catalog() }

// WorkloadByAbbr finds a catalog application by its paper abbreviation
// (e.g. "HSD", "BFS").
func WorkloadByAbbr(abbr string) (App, bool) { return workload.ByAbbr(abbr) }

// WorkloadsByPattern returns the catalog applications with the given
// Fig. 2 pattern type.
func WorkloadsByPattern(p PatternType) []App { return workload.ByPattern(p) }

// Scenarios returns the named workload-v2 presets (phase schedules and
// colocations), in catalog order.
func Scenarios() []Scenario { return workload.Scenarios() }

// ScenarioByName finds a workload-v2 preset by name (e.g. "diurnal").
func ScenarioByName(name string) (Scenario, bool) { return workload.ScenarioByName(name) }

// SystemConfig returns the paper's Table I system with the given
// device-memory capacity in pages. Spec-driven callers should prefer
// hpe.Run, which derives the config from the RunSpec; this constructor is
// for hand-assembled Simulate calls.
//
//lint:ignore hpelint/specsource public facade constructor for hand-assembled Simulate calls; spec-driven paths use runspec.Materialize
func SystemConfig(memoryPages int) Config { return gpu.DefaultConfig(memoryPages) }

// Simulate runs one trace under one policy on the Table I system. Run
// options attach instrumentation and tweak run-scoped knobs:
//
//	m := hpe.NewMetricsProbe()
//	r := hpe.Simulate(cfg, tr, hpe.NewLRU(), hpe.WithProbe(m))
//	fmt.Println(r.Probe.Count("fault_end"))
func Simulate(cfg Config, tr *Trace, pol Policy, opts ...RunOption) Result {
	rc, pr := applyRunOptions(pol, opts)
	if rc.useHIR {
		cfg.UseHIR = true
	}
	var gopts []gpu.Option
	if pr != nil {
		gopts = append(gopts, gpu.WithProbe(pr))
	}
	if rc.ctx != nil {
		gopts = append(gopts, gpu.WithContext(rc.ctx))
	}
	r := gpu.Run(cfg, tr, pol, gopts...)
	flushProbe(pr)
	return r
}

// SimulateHPE runs the full production HPE configuration (HIR cache attached,
// walk hits batched every 16th fault, dynamic adjustment on).
func SimulateHPE(cfg Config, tr *Trace, hpeCfg HPEConfig, opts ...RunOption) Result {
	opts = append(opts, WithHIR())
	return Simulate(cfg, tr, hpecore.New(hpeCfg), opts...)
}

// Run executes one canonical run description end to end: the spec is
// canonicalized, materialized into (workload, trace, system config, policy),
// and simulated. This is the entry point the CLIs and hped share — the same
// spec produces the same simulation everywhere, cached under Spec.ID():
//
//	r, err := hpe.Run(hpe.RunSpec{App: "HSD", Policy: "hpe", Rate: 75})
//
// WithRunEnv plugs in long-lived trace caches; WithProbe, WithContext and
// WithSeed work as in Simulate (WithSeed overrides the spec's seed for the
// policy instance only — the spec's identity is unchanged). WithHIR is
// ignored: the spec's canonicalized HIR field decides.
func Run(sp RunSpec, opts ...RunOption) (Result, error) {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	m, err := sp.Materialize(rc.env)
	if err != nil {
		return Result{}, err
	}
	return runMaterialized(m, rc), nil
}

// runMaterialized drives the simulator from a materialized spec, honouring
// the run-scoped options (probes, reseed, context).
func runMaterialized(m runspec.Materialized, rc runConfig) Result {
	reseed(m.Policy, rc.seed)
	pr := probe.Multi(rc.probes...)
	var gopts []gpu.Option
	if pr != nil {
		gopts = append(gopts, gpu.WithProbe(pr))
	}
	if rc.ctx != nil {
		gopts = append(gopts, gpu.WithContext(rc.ctx))
	}
	r := gpu.Run(m.Config, m.Trace, m.Policy, gopts...)
	flushProbe(pr)
	return r
}

// ReplaySpec is the spec-backed replay path: the spec's workload, capacity
// and policy, replayed timing-free (no TLBs or latencies). Timing-only spec
// dimensions (design, datapath, max-cycles, tuning latencies) don't apply.
func ReplaySpec(sp RunSpec, opts ...RunOption) (ReplayResult, error) {
	var rc runConfig
	for _, opt := range opts {
		opt(&rc)
	}
	m, err := sp.Materialize(rc.env)
	if err != nil {
		return ReplayResult{}, err
	}
	reseed(m.Policy, rc.seed)
	pr := probe.Multi(rc.probes...)
	ctx := rc.ctx
	if ctx == nil {
		//lint:ignore hpelint/ctxflow omitting WithContext means "not cancellable" by documented contract; Background keeps the unpolled fast path
		ctx = context.Background()
	}
	r := policy.Replay(ctx, m.Trace, m.Policy, m.Capacity, pr)
	flushProbe(pr)
	return r, nil
}

// Replay runs a timing-free reference-string replay: demand paging only, no
// TLBs or latencies — the right tool for quick eviction-count comparisons.
// WithProbe attaches instrumentation (events carry the trace position as
// their timestamp); WithHIR has no effect here.
func Replay(tr *Trace, pol Policy, capacityPages int, opts ...RunOption) ReplayResult {
	rc, pr := applyRunOptions(pol, opts)
	ctx := rc.ctx
	if ctx == nil {
		//lint:ignore hpelint/ctxflow omitting WithContext means "not cancellable" by documented contract; Background keeps the unpolled fast path
		ctx = context.Background()
	}
	r := policy.Replay(ctx, tr, pol, capacityPages, pr)
	flushProbe(pr)
	return r
}

// DefaultHPEConfig returns the paper's published HPE parameters: 16-page
// sets, 64-fault intervals, ratio thresholds 0.3 and 2, FIFO depth 128,
// wrong-eviction threshold 16.
func DefaultHPEConfig() HPEConfig { return hpecore.DefaultConfig() }

// Fixed policy constructors. These are thin compatibility wrappers over the
// name-keyed registry (NewPolicy / PolicyNames), which is the primary API.

// NewHPE builds an HPE policy instance (one per simulation run).
func NewHPE(cfg HPEConfig) Policy { return mustPolicy("hpe", WithHPEConfig(cfg)) }

// NewLRU builds a page-level LRU policy.
func NewLRU() Policy { return mustPolicy("lru") }

// NewFIFO builds a FIFO policy.
func NewFIFO() Policy { return mustPolicy("fifo") }

// NewLFU builds a least-frequently-used policy.
func NewLFU() Policy { return mustPolicy("lfu") }

// NewRandom builds a random-eviction policy with a deterministic seed.
func NewRandom(seed int64) Policy { return mustPolicy("random", WithPolicySeed(seed)) }

// NewRRIP builds the paper's enhanced RRIP policy. Use
// policy-defaults via DefaultRRIPConfig / ThrashingRRIPConfig.
func NewRRIP(cfg RRIPConfig) Policy { return mustPolicy("rrip", WithRRIPConfig(cfg)) }

// DefaultRRIPConfig is the non-Type-II RRIP setup (long insertion, no delay).
func DefaultRRIPConfig() RRIPConfig { return policy.DefaultRRIPConfig() }

// ThrashingRRIPConfig is the Type-II RRIP setup (distant insertion,
// delay threshold 128).
func ThrashingRRIPConfig() RRIPConfig { return policy.ThrashingRRIPConfig() }

// NewClockPro builds CLOCK-Pro with the paper's fixed m_c = 128.
func NewClockPro(capacityPages int) Policy {
	return mustPolicy("clockpro", WithCapacity(capacityPages))
}

// NewIdeal builds the offline Belady-MIN oracle over the given trace.
func NewIdeal(tr *Trace) Policy { return mustPolicy("ideal", WithTrace(tr)) }

// NewSetLRU builds the set-granularity LRU ablation policy: HPE's eviction
// granularity with none of its partition or classification machinery.
func NewSetLRU() Policy { return mustPolicy("setlru") }

// NewClock builds the classic CLOCK second-chance policy.
func NewClock() Policy { return mustPolicy("clock") }

// NewNRU builds the not-recently-used policy.
func NewNRU() Policy { return mustPolicy("nru") }

// NewARC builds the Adaptive Replacement Cache for the given capacity.
func NewARC(capacityPages int) Policy { return mustPolicy("arc", WithCapacity(capacityPages)) }

// NewSuite builds the experiment harness over the full catalog (or the
// quick subset).
func NewSuite(opts SuiteOptions) *Suite { return experiments.NewSuite(opts) }

// ExperimentIDs lists the reproducible tables and figures in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// HPEStatsOf extracts the HPE bookkeeping from a result, when the run used
// HPE.
func HPEStatsOf(r Result) (HPEStats, bool) {
	if r.HPE == nil {
		return HPEStats{}, false
	}
	return *r.HPE, true
}
