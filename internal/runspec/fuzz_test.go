package runspec

import (
	"bytes"
	"testing"
)

// FuzzSpecDecode feeds arbitrary bodies to the /v1/runs wire decoder. Every
// body Decode accepts must come out canonical: canonicalizing it again
// changes nothing, its ID is the same on every call, and — when it carries
// no Tuning, the part with no flag surface — rendering it as CLI flags and
// back lands on the same ID. The seed corpus runs on every plain `go test`
// (and through `make fuzz-seed`).
func FuzzSpecDecode(f *testing.F) {
	for _, body := range []string{
		`{"app":"HSD","policy":"hpe","rate":75}`,
		`{"app":" nw ","policy":"clock-pro","rate":50,"seed":3,"design":"pwc"}`,
		`{"app":"HSD","policy":"lru","rate":100,"prefetch_pages":15,"channels":4,` +
			`"datapath":true,"hir":"on","scale":2,"max_cycles":1000}`,
		`{"phases":"HOT:32,HSD:96,HOT:32","policy":"lru","rate":75}`,
		`{"tenants":"HSD,BFS","interleave":512,"policy":"hpe","rate":50}`,
		`{"app":"HSD","policy":"hpe","rate":75,"tuning":{"walk_latency":8,"transfer_interval":32}}`,
		`{"app":"HSD","policy":"hpe","rate":0}`,
		`{"app":"HSD","phases":"HOT:32","policy":"hpe","rate":75}`,
		`{"app":"HSD","policy":"hpe","rate":75,"bogus":1}`,
		`{"app":"HSD"`,
		`[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Decode(bytes.NewReader(body))
		if err != nil {
			return
		}
		again, err := s.Canonicalize()
		if err != nil {
			t.Fatalf("Canonicalize rejects decoded spec %+v: %v", s, err)
		}
		if again != s {
			t.Fatalf("Canonicalize is not idempotent:\n decoded %+v\n again   %+v", s, again)
		}
		id := s.ID()
		if got := s.ID(); got != id {
			t.Fatalf("ID unstable: %s then %s", id, got)
		}
		if s.Tuning != (Tuning{}) {
			return
		}
		if got := FlagsFromSpec(s).Spec().ID(); got != id {
			t.Fatalf("flag round trip moved the ID: %s → %s for %+v", id, got, s)
		}
	})
}
