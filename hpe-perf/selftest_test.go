package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden.json from a seed-1 sweep")

// quotedNames are the workload-specific end-to-end names each workload must
// print beside the BENCHMARK.json metrics.
var quotedNames = map[string][]string{
	"paper-sweep": {"setup_s", "sim_maccess_per_s", "sweep_s_p50", "heap_mb", "fail_ratio"},
	"hped-hot":    {"setup_s", "req_ms_p50", "req_ms_p99", "req_ms_p99_windowed", "max_krps_at_slo", "fail_ratio"},
	"hped-mixed":  {"setup_s", "heap_mb", "req_ms_p50", "req_ms_p99", "req_ms_p99_windowed", "cold_ms_p50", "cold_ms_p95", "cold_ms_min", "fail_ratio"},
	"coord-suite": {"setup_s", "suite_ms_p50", "suite_ms_p95", "fail_ratio"},
}

// TestWorkloadsTiny runs every workload, untraced and traced, at smoke size
// and checks that its output checks pass and that it prints every metric.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, seconds: 1, trace: traced, root: "..", tiny: true}
			rep, err := fn(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			var buf bytes.Buffer
			if err := emit(&buf, name, cfg, rep); err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or not in %s", name, traced, d.name, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			for _, n := range quotedNames[name] {
				if !strings.Contains(buf.String(), "  "+n+" ") {
					t.Errorf("%s trace=%t: %s not printed", name, traced, n)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), program has %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			if d.better != "" && got[i].Better != d.better {
				t.Errorf("%s %s: better=%s, program has %s", kind, d.name, got[i].Better, d.better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestUpdateGolden rewrites golden.json, the committed headline metrics of
// the seed-independent temporal and colocation studies, with
// `go test -run UpdateGolden -update-golden`.
func TestUpdateGolden(t *testing.T) {
	if !*updateGolden {
		t.Skip("pass -update-golden to rewrite golden.json")
	}
	ids := []string{"temporal", "colocation"}
	setup, err := buildSweep(1, ids)
	if err != nil {
		t.Fatal(err)
	}
	run, err := suiteSweep(1, ids, setup.cells)
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenReport
	for _, r := range run.reports {
		for k, v := range r.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s/%s = %v cannot be stored", r.ID, k, v)
			}
		}
		out = append(out, goldenReport{ID: r.ID, Metrics: r.Metrics})
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
