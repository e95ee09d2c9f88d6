package runspec

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/gpu"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// sparseShift lifts the upper half of a trace's page sets 2^36 pages up: a
// multiple of every set size, so page sets stay whole and the low address
// bits that TLB sets and HIR tags index by are unchanged.
const sparseShift = addrspace.PageID(1) << 36

// spreadTrace returns tr with every page set in the upper half of its span
// moved up by sparseShift. The result spans 2^36 pages, far past any dense
// per-page table.
func spreadTrace(tr *trace.Trace) *trace.Trace {
	g := addrspace.DefaultGeometry()
	lo, hi := tr.Span()
	mid := g.SetOf(lo + (hi-lo)/2)
	refs := make([]addrspace.PageID, len(tr.Refs))
	for i, p := range tr.Refs {
		if g.SetOf(p) > mid {
			p += sparseShift
		}
		refs[i] = p
	}
	return trace.NewWithBarriers(tr.Name, refs, tr.Barriers)
}

// TestSparseSpanMatchesDense is the metamorphic check on the per-page
// tables' sparse fallback: a catalog trace and its 2^36-page spread replay
// through trace: materialization to the same gpu.Result under every
// policy family. The spread run must also allocate about what the dense run
// does: a table that stayed dense over the spread span would allocate
// gigabytes, so the bound proves every table took its sparse path.
func TestSparseSpanMatchesDense(t *testing.T) {
	apps := []string{"MVT", "NW", "HSD", "KMN", "BFS", "SRD", "HYB", "B+T"}
	policies := []string{"lru", "hpe", "rrip", "ideal", "random", "clockpro", "fifo", "lfu"}
	if testing.Short() {
		apps = apps[:1]
	}
	for _, abbr := range apps {
		app, _ := workload.ByAbbr(abbr)
		dense := app.Generate()
		sparse := spreadTrace(dense)
		if lo, hi := sparse.Span(); hi-lo < sparseShift {
			t.Fatalf("%s: spread span [%v, %v] is not sparse", abbr, lo, hi)
		}
		env := Env{ReadTrace: func(path string) (*trace.Trace, error) {
			switch path {
			case "dense":
				return dense, nil
			case "sparse":
				return sparse, nil
			}
			return nil, fmt.Errorf("unknown trace %q", path)
		}}
		for _, pol := range policies {
			for _, rate := range []int{50, 75} {
				want, wantBytes := runTraced(t, env, "trace:dense", pol, rate)
				got, gotBytes := runTraced(t, env, "trace:sparse", pol, rate)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s/%d: spread run differs from dense run:\n got %+v\nwant %+v",
						abbr, pol, rate, got, want)
				}
				if gotBytes > 2*wantBytes+1<<20 {
					t.Errorf("%s/%s/%d: spread run allocated %d bytes, dense run %d: a table went dense over the spread span",
						abbr, pol, rate, gotBytes, wantBytes)
				}
			}
		}
	}
}

// runTraced materializes and simulates one trace: run, returning the result
// and the bytes the simulation allocated.
func runTraced(t *testing.T, env Env, app, pol string, rate int) (gpu.Result, uint64) {
	t.Helper()
	m, err := Spec{App: app, Policy: pol, Rate: rate}.Materialize(env)
	if err != nil {
		t.Fatalf("materialize %s/%s/%d: %v", app, pol, rate, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := gpu.Run(m.Config, m.Trace, m.Policy)
	runtime.ReadMemStats(&after)
	return res, after.TotalAlloc - before.TotalAlloc
}
