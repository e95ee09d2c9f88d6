// Command hpe-perf is the repository benchmark. Each workload drives the
// simulator or the hped serving stack only through public entry points
// (hpe.Run/gpu.Run, experiments.NewSuite with its Runner seam, the
// server and cluster handlers over loopback TCP, and policy.Policy), checks
// every output it gets back, and prints its metrics.
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) measures the same workload untraced and then traced, and
// prints the per-layer metrics, the tracing overhead, and the layer self
// times, writing the raw spans under .bench_build/hpe-perf/spans/.
//
// Usage, from the repository root:
//
//	sh hpe-perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// README.md in this directory explains the workloads, the metrics, and
// which end-to-end metric each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// root is the repository root: results.json and hpe-perf/ live there.
	root string
	// tiny shrinks every workload to a smoke size (the self-test).
	tiny bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// report is what one workload invocation measured.
type report struct {
	attempted int
	failed    int
	// problems lists every failed output check, for stderr.
	problems []string
	// e2e holds the end-to-end metrics by their BENCHMARK.json names.
	e2e map[string]float64
	// quoted holds the figures a workload's users quote, by their own
	// names (wall-clock latencies, tails, throughputs); they are printed
	// but not bounded.
	quoted []named
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	// notes are extra human-readable lines (per-rung tables, digests).
	notes []string
}

type named struct {
	name, unit string
	value      float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed output check; it counts against fail_ratio.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// metricDef describes one metric: its unit, and for per-layer metrics the
// end-to-end metric and workload it is expected to move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics every workload reports from its untraced run,
// the ones BENCHMARK.json bounds. Their per-workload meaning is in
// README.md. Each workload also prints its own end-to-end figures (wall-clock
// latencies, tails, throughputs) by name; those are not bounded because host
// CPU steal moves them far more than any bound allows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"p50_ms", "ms", "lower", ""},
	{"cpu_ms_per_op", "ms", "lower", ""},
	{"heap_mb", "MB", "lower", ""},
}

const (
	sweepP = "cpu_ms_per_op,p50_ms [paper-sweep]"
	hotP   = "p50_ms,cpu_ms_per_op [hped-hot]"
	mixP   = "p50_ms [hped-mixed]"
	coordP = "p50_ms,cpu_ms_per_op [coord-suite]"
)

// perLayer are the metrics of a traced run. Every workload prints all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"experiments.cells", "count", "lower", sweepP},
	{"experiments.dedup_ratio", "ratio", "lower", sweepP},
	{"experiments.local_suite_ms", "ms", "lower", coordP},
	{"workload.trace_ms", "ms", "lower", "cpu_ms_per_op,p50_ms [paper-sweep]; setup_s [hped-*, coord-suite]"},
	{"runspec.materialize_us", "us", "lower", sweepP},
	{"runspec.decode_us", "us", "lower", hotP},
	{"runspec.id_us", "us", "lower", hotP},
	{"workload.byabbr_us", "us", "lower", hotP},
	{"gpu.run_ms_p50", "ms", "lower", sweepP},
	{"gpu.run_ms_p95", "ms", "lower", sweepP},
	{"gpu.ns_per_access", "ns", "lower", sweepP},
	{"gpu.run_ms.lru", "ms", "lower", sweepP},
	{"gpu.run_ms.random", "ms", "lower", sweepP},
	{"gpu.run_ms.rrip", "ms", "lower", sweepP},
	{"gpu.run_ms.clockpro", "ms", "lower", sweepP},
	{"gpu.run_ms.hpe", "ms", "lower", sweepP},
	{"gpu.run_ms.ideal", "ms", "lower", sweepP},
	{"policy.calls.OnWalkHit", "count", "lower", sweepP},
	{"policy.calls.OnFault", "count", "lower", sweepP},
	{"policy.calls.OnMapped", "count", "lower", sweepP},
	{"policy.calls.SelectVictim", "count", "lower", sweepP},
	{"policy.calls.OnEvicted", "count", "lower", sweepP},
	{"policy.ns.OnWalkHit", "ns", "lower", sweepP},
	{"policy.ns.OnFault", "ns", "lower", sweepP},
	{"policy.ns.OnMapped", "ns", "lower", sweepP},
	{"policy.ns.SelectVictim", "ns", "lower", sweepP},
	{"policy.ns.OnEvicted", "ns", "lower", sweepP},
	{"policy.share", "ratio", "lower", sweepP},
	{"gpu.accesses", "count", "lower", "none (model counter)"},
	{"sim.cycles", "count", "lower", "none (model counter)"},
	{"uvm.faults", "count", "lower", "none (model counter)"},
	{"uvm.evictions", "count", "lower", "none (model counter)"},
	{"uvm.evictions_per_fault", "ratio", "lower", "none (model counter)"},
	{"uvm.coalesced", "count", "lower", "none (model counter)"},
	{"uvm.batched", "count", "lower", "none (model counter)"},
	{"gpu.walks", "count", "lower", "none (model counter)"},
	{"gpu.walk_hits", "count", "lower", "none (model counter)"},
	{"gpu.walk_merges", "count", "lower", "none (model counter)"},
	{"tlb.l1_hit_ratio", "ratio", "higher", "none (model counter)"},
	{"tlb.l2_hit_ratio", "ratio", "higher", "none (model counter)"},
	{"hir.drains", "count", "lower", "none (model counter)"},
	{"hir.conflicts", "count", "lower", "none (model counter)"},
	{"hpe.mean_comparisons", "count", "lower", "none (model counter)"},
	{"http.ttfb_us_p50", "us", "lower", hotP},
	{"http.conn_reuse_ratio", "ratio", "higher", hotP},
	{"server.handler_us_p50", "us", "lower", hotP},
	{"server.handler_us_p99", "us", "lower", "req_ms_p99 [hped-hot]"},
	{"server.run_ms_mean", "ms", "lower", "cold_ms_p95,cpu_ms_per_op [hped-mixed]"},
	{"server.queue_wait_ms_est", "ms", "lower", "cold_ms_p95,req_ms_p99 [hped-mixed]"},
	{"server.heap_kb_per_spec", "KB", "lower", "heap_mb [hped-mixed]"},
	{"respcache.hit_ratio", "ratio", "higher", mixP},
	{"respcache.evictions", "count", "lower", mixP},
	{"flight.coalesce_ratio", "ratio", "higher", "cold_ms_p50 [hped-mixed]"},
	{"admission.rejected", "count", "lower", "attempted/failed [hped-mixed]"},
	{"cluster.shards_per_suite", "count", "lower", coordP},
	{"cluster.shard_ms_mean", "ms", "lower", coordP},
	{"cluster.redispatches", "count", "lower", coordP},
	{"cluster.ring_skew", "ratio", "lower", coordP},
	{"server.backend_hit_ratio", "ratio", "higher", coordP},
	{"server.render_ms", "ms", "lower", coordP},
	{"loadgen.late_ms_p99.r0", "ms", "lower", "validity [hped-*]"},
	{"loadgen.late_ms_p99.r1", "ms", "lower", "validity [hped-hot]"},
	{"loadgen.late_ms_p99.r2", "ms", "lower", "validity [hped-hot]"},
	{"loadgen.late_ms_p99.r3", "ms", "lower", "validity [hped-hot]"},
	{"loadgen.late_ms_p99.r4", "ms", "lower", "validity [hped-hot]"},
	{"loadgen.backlog_max.r0", "count", "lower", "validity [hped-*]"},
	{"loadgen.backlog_max.r1", "count", "lower", "validity [hped-hot]"},
	{"loadgen.backlog_max.r2", "count", "lower", "validity [hped-hot]"},
	{"loadgen.backlog_max.r3", "count", "lower", "validity [hped-hot]"},
	{"loadgen.backlog_max.r4", "count", "lower", "validity [hped-hot]"},
	{"self_ms.client", "ms", "lower", "per request or sweep"},
	{"self_ms.server", "ms", "lower", "per request or sweep"},
	{"self_ms.cluster", "ms", "lower", "per request or sweep"},
	{"self_ms.backend", "ms", "lower", "per request or sweep"},
	{"self_ms.experiments", "ms", "lower", "per request or sweep"},
	{"self_ms.runspec", "ms", "lower", "per request or sweep"},
	{"self_ms.gpu", "ms", "lower", "per request or sweep"},
	{"self_ms.policy", "ms", "lower", "per request or sweep"},
	{"trace.overhead_ratio", "ratio", "lower", "traced/untraced median latency"},
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(config) (*report, error){
	"paper-sweep": runPaperSweep,
	"hped-hot":    runHpedHot,
	"hped-mixed":  runHpedMixed,
	"coord-suite": runCoordSuite,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-sweep, hped-hot, hped-mixed or coord-suite")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		traced  = flag.Int("trace", 0, "1 for the traced (per-layer) run")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: hpe-perf --workload <paper-sweep|hped-hot|hped-mixed|coord-suite> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1, root: "."}
	if _, err := os.Stat(filepath.Join(cfg.root, "results.json")); err != nil {
		fmt.Fprintf(os.Stderr, "hpe-perf: run from the repository root: %v\n", err)
		os.Exit(2)
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpe-perf %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, *name, cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "hpe-perf %s: %v\n", *name, err)
		os.Exit(1)
	}
}

// emit prints the human-readable block and, as the last line, the result
// object: end-to-end metrics from an untraced run, per-layer metrics from a
// traced one.
func emit(w io.Writer, name string, cfg config, rep *report) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "hpe-perf %s seed=%d seconds=%g %s\n", name, cfg.seed, cfg.seconds, mode)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	ratio := float64(rep.failed) / float64(max(rep.attempted, 1))
	quoted := append(append([]named(nil), rep.quoted...), named{"fail_ratio", "ratio", ratio})
	for _, n := range quoted {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", n.name, n.value, n.unit)
	}
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[d.name] = value{v, d.unit}
		if cfg.trace {
			fmt.Fprintf(w, "  %-28s %14.6g %-6s -> %s\n", d.name, v, d.unit, d.moves)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// repeatSetup runs build reps times (once when tiny), tearing down all but
// the last result, and returns the last one: the one measured against.
//
// setup_s is the median CPU time of a set-up, not its wall time: the same
// hped set-up took from 0.44 s to 0.99 s of wall time as host steal went from
// 0% to 31%, while its CPU time held. The wall time is printed beside it.
func repeatSetup[T any](cfg config, rep *report, reps int, build func() (T, error), teardown func(T)) (T, error) {
	if cfg.tiny {
		reps = 1
	}
	var cpu, wall []float64
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown(last)
		}
		t0, c0 := time.Now(), cpuTime()
		v, err := build()
		if err != nil {
			return v, err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
		last = v
	}
	rep.e2e["setup_s"] = median(cpu)
	rep.quoted = append(rep.quoted, named{"setup_s", "s", median(cpu)}, named{"setup_wall_s", "s", median(wall)})
	return last, nil
}

// cpuTime is the process's user+system CPU time. It leaves out the time the
// process waits for a CPU, so on a busy shared host it moves far less than
// wall-clock latency does, which makes it the base of the cost metric.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
