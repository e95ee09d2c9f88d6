package experiments

// Concurrent suite runner: a plan pass that lists the cells the requested
// experiments need, a worker-pool scheduler that shards those planned cells
// across Options.Workers goroutines, plus the singleflight primitive that
// makes the Suite's memoized caches goroutine-safe. Every simulation is
// deterministic and keyed, and report aggregation walks the caches in
// canonical order, so parallel execution is byte-identical to serial
// execution (TestParallelMatchesSerial is the contract). Workers == 1
// bypasses the plan pass and every goroutine and channel — the debugging
// path.

import (
	"context"
	"fmt"
	"sync"

	"hpe/internal/gpu"
	"hpe/internal/runspec"
)

// flight is one in-progress singleflight computation. The goroutine that
// claims a key computes the value; later arrivals block on done and read
// val. ok distinguishes a completed computation from one that panicked;
// cacheable records the compute function's verdict on whether the value may
// be published to the memo cache (a cancelled, partial simulation must not
// be).
type flight[V any] struct {
	done      chan struct{}
	val       V
	ok        bool
	cacheable bool
}

// dedup returns cache[key], computing it at most once across concurrent
// callers: the first goroutine to ask runs compute with mu released, every
// other goroutine blocks until the value is published. compute's second
// return value decides whether the result enters the cache — an uncacheable
// result (e.g. a simulation cut short by cancellation) is still handed to
// this round's waiters but is never visible to later callers, who recompute.
// The publication decision and the cache write happen under one critical
// section, so there is no window in which an uncacheable value can be
// observed in the cache. The returned bool reports whether this caller did
// the computing (callers use it to emit progress exactly once per cell). If
// compute panics, the panic propagates to the computing caller and waiters
// retry the computation themselves.
func dedup[K comparable, V any](mu *sync.Mutex, cache map[K]V, inflight map[K]*flight[V],
	key K, compute func() (V, bool)) (V, bool) {
	mu.Lock()
	for {
		if v, ok := cache[key]; ok {
			mu.Unlock()
			return v, false
		}
		f, ok := inflight[key]
		if !ok {
			break
		}
		mu.Unlock()
		<-f.done
		if f.ok {
			return f.val, false
		}
		mu.Lock() // the computing goroutine panicked: try to claim the key ourselves
	}
	f := &flight[V]{done: make(chan struct{})}
	inflight[key] = f
	mu.Unlock()

	defer func() {
		mu.Lock()
		if f.ok && f.cacheable {
			cache[key] = f.val
		}
		delete(inflight, key)
		mu.Unlock()
		close(f.done)
	}()
	f.val, f.cacheable = compute()
	f.ok = true
	return f.val, true
}

// workers normalizes Options.Workers: anything below 1 means serial.
func (s *Suite) workers() int {
	if s.opts.Workers < 1 {
		return 1
	}
	return s.opts.Workers
}

// runPool executes fn(0..n-1) across at most `workers` goroutines. With one
// worker (or one job) it degenerates to a plain loop on the calling
// goroutine — no channels, no goroutines.
//
// Teardown is deterministic in both failure modes:
//
//   - Cancellation: when ctx is done the feeder stops handing out indices,
//     in-flight fn calls finish (their simulations observe the same ctx and
//     stop at the next poll), every worker exits, and runPool returns
//     ctx.Err(). No goroutine is left blocked on the feed channel.
//   - Panic: a panicking fn no longer kills the process from inside a worker
//     (which would strand the feeder blocked on `next <-` with no receiver
//     during crash unwinding). The first panic value is captured, remaining
//     work is abandoned, all workers drain, and the panic is re-raised on
//     the calling goroutine once the pool is quiescent.
func runPool(ctx context.Context, workers, n int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			fn(i)
		}
		return nil
	}
	next := make(chan int)
	stop := make(chan struct{}) // closed by the first panicking worker
	var stopOnce sync.Once
	var panicMu sync.Mutex
	var panicked bool
	var panicVal any
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if !panicked {
								panicked, panicVal = true, p
							}
							panicMu.Unlock()
							stopOnce.Do(func() { close(stop) })
						}
					}()
					fn(i)
				}()
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		//lint:ignore hpelint/determinism which worker takes which index never reaches output: results land in canonical-order aggregation (parallel_test.go proves 1-vs-8 worker byte identity)
		select {
		case next <- i:
		case <-stop:
			break feed
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return ctx.Err()
}

// plan lists the distinct cells the experiments with the given IDs ask for,
// in request order, without simulating any of them. It runs the experiment
// functions once on a throwaway Suite (same Quick and Seed, no Progress,
// Probe or Context) whose Runner records each canonical spec and returns a
// non-zero placeholder result, so the reports' ratios and geometric means
// stay defined. The throwaway Suite shares this Suite's trace memo, so an
// experiment that reads a trace (table2) synthesizes it once for both
// passes. Experiments choose their cells without looking at results; should
// one ever pick a cell from a result, the plan misses that cell and RunSpec
// still computes it on demand — correct, only serial.
// TestReportsPlanMatchesSerialCells keeps the plan equal to a serial run.
func (s *Suite) plan(ids []string) []runspec.Spec {
	var cells []runspec.Spec
	p := &Suite{
		opts: Options{Quick: s.opts.Quick, Seed: s.opts.Seed,
			Runner: func(_ context.Context, sp runspec.Spec, _ string) (gpu.Result, error) {
				cells = append(cells, sp)
				return gpu.Result{Cycles: 1, Accesses: 1, IPC: 1, Faults: 1, Evictions: 1}, nil
			}},
		apps:    s.apps,
		memo:    s.memo,
		results: make(map[string]gpu.Result),
		runWIP:  make(map[string]*flight[gpu.Result]),
	}
	for _, id := range ids {
		fn, _ := p.experiment(id)
		fn()
	}
	return cells
}

// Reports runs the experiments with the given IDs and returns their reports
// in the same order. Unknown IDs fail before anything runs. With
// Options.Workers > 1 a plan pass first lists the planned cells of the
// requested experiments, and those cells are sharded across a worker pool
// (the bulk of the simulation work); then the experiment functions
// themselves execute concurrently, every cell they read already cached.
// Aggregation order is the ids slice, and each report is assembled from
// cached results in canonical catalog order, so output is byte-identical to
// Workers == 1, which skips the plan pass and simulates each cell on demand.
// When Options.Context is cancelled mid-run the pool drains
// deterministically and Reports returns the context's error with no reports
// (partial aggregates are never surfaced).
func (s *Suite) Reports(ids []string) ([]Report, error) {
	fns := make([]func() Report, len(ids))
	for i, id := range ids {
		fn, ok := s.experiment(id)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		fns[i] = fn
	}
	if w := s.workers(); w > 1 {
		cells := s.plan(ids)
		if err := runPool(s.ctx(), w, len(cells), func(i int) { s.RunSpec(cells[i]) }); err != nil {
			return nil, err
		}
	}
	out := make([]Report, len(ids))
	if err := runPool(s.ctx(), s.workers(), len(ids), func(i int) { out[i] = fns[i]() }); err != nil {
		return nil, err
	}
	return out, nil
}
