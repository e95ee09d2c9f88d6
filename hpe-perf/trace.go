package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public entry point it calls. Spans of one request or cell share ID.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span // guarded by mu
}

// maxSpans bounds a traced run's memory; later spans are dropped.
const maxSpans = 1 << 20

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle (-1 when not tracing).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(h int) {
	if t == nil || h < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover (children may overlap,
// so their intervals are merged first), and the number of spans.
func (t *tracer) selfTimes() (map[string]time.Duration, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := map[string]time.Duration{}
	count := map[string]int{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		covered := int64(0)
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		cur := [2]int64{-1, -1}
		for _, iv := range ivs {
			lo, hi := max(iv[0], s.Start), min(iv[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finish writes the spans of a traced run and fills the self_ms.* metrics:
// the mean self time per root span (a sweep, a request or a suite) of each
// layer, where layers maps a span name to its layer.
func (t *tracer) finish(cfg config, workload string, rep *report, roots string, layers map[string]string) {
	self, count := t.selfTimes()
	n := count[roots]
	for name, layer := range layers {
		if n > 0 {
			rep.layer["self_ms."+layer] += ms(self[name]) / float64(n)
		}
	}
	if cfg.tiny {
		return
	}
	dir := filepath.Join(cfg.root, ".bench_build", "hpe-perf", "spans")
	file := fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed)
	if err := t.write(dir, file); err != nil {
		rep.notes = append(rep.notes, "spans not written: "+err.Error())
		return
	}
	rep.notes = append(rep.notes, fmt.Sprintf("spans: %s (%d roots)", filepath.Join(dir, file), n))
}
