package server

import (
	"fmt"
	"testing"

	"hpe"
	"hpe/internal/workload"
)

// cached reads the trace cache's byte total (test helper).
func (c *traceCache) cached() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// TestTraceCacheBoundedOverPhaseSpecs sends many distinct phase schedules
// through hped's trace cache, as a stream of never-repeated `phases:` run
// specs would: the cached bytes must stay within the budget throughout.
func TestTraceCacheBoundedOverPhaseSpecs(t *testing.T) {
	c := newTraceCache()
	var sent int64
	for i := 0; i < 24; i++ {
		ps, err := workload.ParsePhases(fmt.Sprintf("HSDx4,HOT:%d", 16+i))
		if err != nil {
			t.Fatal(err)
		}
		sent += traceBytes(c.get(ps.App()))
		if cached := c.cached(); cached > traceBudget {
			t.Fatalf("after %d specs the cache holds %d bytes, budget %d", i+1, cached, traceBudget)
		}
	}
	if sent <= traceBudget {
		t.Fatalf("the specs' traces total %d bytes, within the %d budget: nothing was evicted", sent, traceBudget)
	}
}

// TestTraceCacheHoldsWorkingSet pins the budget's sizing: every catalog app
// at scale 1 plus the five phase and tenant sources of the hped-mixed
// benchmark fit together, so a second pass over them generates nothing.
func TestTraceCacheHoldsWorkingSet(t *testing.T) {
	apps := workload.Catalog()
	for _, s := range []string{"HOT:16,HOT:32,HOT:16", "PAT:24,HSD:48,PAT:24", "STN:32,STN:8,STN:32"} {
		ps, err := workload.ParsePhases(s)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, ps.App())
	}
	for _, tc := range []struct {
		tenants    string
		interleave int
	}{{"HSD,BFS", workload.DefaultInterleave}, {"HOT,NW", 256}} {
		co, err := workload.ParseTenants(tc.tenants)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, co.App(tc.interleave))
	}
	c := newTraceCache()
	first := make([]*hpe.Trace, len(apps))
	for i, app := range apps {
		first[i] = c.get(app)
	}
	for i, app := range apps {
		if c.get(app) != first[i] {
			t.Fatalf("%s was regenerated on the second pass (%d bytes cached, budget %d)",
				app.Abbr, c.cached(), traceBudget)
		}
	}
}
