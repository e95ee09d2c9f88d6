package gpu

import (
	"testing"

	"hpe/internal/addrspace"
	"hpe/internal/policy"
	"hpe/internal/trace"
	"hpe/internal/workload"
)

// TestPrepopulatedRunAllocBound pins the hotalloc guarantee over the whole
// gpu+uvm handler path at runtime: with the footprint prepopulated there
// are no demand faults, so the steady-state issue → TLB → walk → complete
// event chain must not allocate per access. Construction (engine, SMs,
// TLBs, pools) is a fixed cost, so the test asserts a small per-access
// bound rather than zero: with 40k accesses, anything that allocates per
// event blows through it immediately, while setup contributes < 0.05.
func TestPrepopulatedRunAllocBound(t *testing.T) {
	const accesses = 40000
	refs := make([]addrspace.PageID, accesses)
	for i := range refs {
		refs[i] = addrspace.PageID(i % 512)
	}
	tr := trace.New("alloc-bound", refs)
	cfg := smallConfig(1024)
	cfg.Prepopulate = true

	total := testing.AllocsPerRun(1, func() {
		res := Run(cfg, tr, policy.NewLRU())
		if res.Faults != 0 {
			t.Fatalf("prepopulated run took %d faults, want 0", res.Faults)
		}
		if res.Accesses != accesses {
			t.Fatalf("completed %d accesses, want %d", res.Accesses, accesses)
		}
	})
	perAccess := total / accesses
	if perAccess > 0.5 {
		t.Errorf("prepopulated run allocated %.0f objects (%.3f per access), want < 0.5 per access",
			total, perAccess)
	}

	// A full catalog trace under the Table I configuration: its per-page
	// tables are reserved over the trace span, so the run allocates only
	// construction, the prepopulated footprint's LRU nodes and pooled
	// slices. 2844 is what this run allocated when the per-page indexes
	// were Go maps; the dense tables must never cost more.
	app, _ := workload.ByAbbr("HSD")
	hsd := app.Generate()
	catCfg := DefaultConfig(hsd.Footprint())
	catCfg.Prepopulate = true
	catalog := testing.AllocsPerRun(1, func() {
		if res := Run(catCfg, hsd, policy.NewLRU()); res.Faults != 0 {
			t.Fatalf("prepopulated HSD run took %d faults, want 0", res.Faults)
		}
	})
	if catalog > 2844 {
		t.Errorf("prepopulated HSD run allocated %.0f objects, want <= 2844", catalog)
	}
}

// TestFaultingRunAllocBound extends the allocation guarantee to the far-fault
// path: walk miss → driver queue → service → wake → complete. The trace
// cycles over more pages than device memory holds, so every pass faults
// again. CLOCK keeps its ring and free list in slices (no per-map node) and
// HIR is off (no drain buffers), so the runs at N and 2N accesses share all
// construction and table growth, and the difference between them is what
// the extra faults cost.
func TestFaultingRunAllocBound(t *testing.T) {
	const pages, n = 512, 20000
	cfg := smallConfig(pages * 3 / 4)
	run := func(accesses int) (allocs float64, faults uint64) {
		refs := make([]addrspace.PageID, accesses)
		for i := range refs {
			refs[i] = addrspace.PageID(i % pages)
		}
		tr := trace.New("faulting", refs)
		allocs = testing.AllocsPerRun(1, func() {
			faults = Run(cfg, tr, policy.NewClock()).Faults
		})
		return allocs, faults
	}
	a1, f1 := run(n)
	a2, f2 := run(2 * n)
	if f2 <= f1 {
		t.Fatalf("faults at 2N = %d, at N = %d: the trace does not keep faulting", f2, f1)
	}
	perFault := (a2 - a1) / float64(f2-f1)
	if perFault >= 0.05 {
		t.Errorf("%d extra faults allocated %.0f extra objects (%.3f per fault), want < 0.05",
			f2-f1, a2-a1, perFault)
	}
}
