package server

import (
	"container/list"
	"fmt"
	"sync"

	"hpe"
)

// traceBudget bounds the bytes of generated traces hped keeps between runs.
// All 23 catalog apps at scale 1 take 2,399,872 bytes of references,
// barriers and annotations; with the five phase and tenant sources the
// hped-mixed benchmark draws from, the set is 3,499,200 bytes. The budget
// holds that working set with room to spare, so it is never regenerated;
// scaled apps and one-off phase or tenant specs cycle through the rest,
// least recently used first.
const traceBudget = 8 << 20

// traceCache is hped's byte-budget LRU of generated traces, keyed by
// workload (abbreviation and page sets). Concurrent runs of one workload
// share one generation.
type traceCache struct {
	mu    sync.Mutex
	bytes int64                    // guarded by mu; generated entries only
	ll    list.List                // guarded by mu; front = most recently used
	items map[string]*list.Element // guarded by mu
}

type traceEntry struct {
	key   string
	once  sync.Once
	tr    *hpe.Trace
	bytes int64 // under the cache's mu; 0 until generated
}

func newTraceCache() *traceCache {
	return &traceCache{items: make(map[string]*list.Element)}
}

// get returns the app's canonical trace, generating it on a miss (traces
// are deterministic and immutable once the lazy footprint is primed).
// Scaled variants of an app get their own entries.
func (c *traceCache) get(app hpe.App) *hpe.Trace {
	key := fmt.Sprintf("%s/%d", app.Abbr, app.Sets)
	c.mu.Lock()
	el, ok := c.items[key]
	if ok {
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(&traceEntry{key: key})
		c.items[key] = el
	}
	e := el.Value.(*traceEntry)
	c.mu.Unlock()
	e.once.Do(func() {
		tr := app.Generate()
		tr.Footprint()
		e.tr = tr
		c.mu.Lock()
		defer c.mu.Unlock()
		e.bytes = traceBytes(tr)
		c.bytes += e.bytes
		c.evictLocked()
	})
	return e.tr
}

// evictLocked drops generated entries, least recently used first, until the
// cache is within budget. Entries still generating carry no bytes yet and
// stay; a trace larger than the whole budget is dropped as soon as it is
// generated (its callers still receive it).
func (c *traceCache) evictLocked() {
	for el := c.ll.Back(); el != nil && c.bytes > traceBudget; {
		prev := el.Prev()
		if e := el.Value.(*traceEntry); e.bytes > 0 {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= e.bytes
		}
		el = prev
	}
}

// traceBytes approximates a trace's heap cost: its reference string,
// barrier positions and annotations.
func traceBytes(tr *hpe.Trace) int64 {
	return int64(8*len(tr.Refs) + 8*len(tr.Barriers) + 24*len(tr.Segments) + 40*len(tr.Tenants))
}
