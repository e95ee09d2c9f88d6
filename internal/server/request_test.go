package server

import (
	"strings"
	"testing"

	"hpe/internal/runspec"
)

// TestRunWireFormCanonicalizes checks the POST /v1/runs wire path: bodies
// meaning the same simulation — alias spellings, omitted vs explicit
// defaults — decode to one canonical spec and therefore one content address.
// (The canonicalization rules themselves are tested in internal/runspec;
// this test pins the server's use of them as its wire form.)
func TestRunWireFormCanonicalizes(t *testing.T) {
	bodies := []string{
		`{"app":" hsd ","policy":"clock-pro","rate":75}`,
		`{"app":"HSD","policy":"clockpro","rate":75,"seed":1,"channels":1,"design":"L2TLB","scale":1}`,
		`{"app":"HSD","policy":"clockpro","rate":75,"hir":"auto"}`,
	}
	var want string
	for i, body := range bodies {
		_, got, err := runspec.DecodeID(strings.NewReader(body))
		if err != nil {
			t.Fatalf("decode body %d: %v", i, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("body %d hashed differently: %s vs %s", i, got, want)
		}
	}
	if !strings.HasPrefix(want, "run-"+runspec.IDVersion+"-") {
		t.Errorf("run ID %q lacks versioned kind prefix", want)
	}

	_, other, err := runspec.DecodeID(strings.NewReader(`{"app":"HSD","policy":"clock-pro","rate":50}`))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if other == want {
		t.Errorf("different rates share a content address")
	}
}

// TestRunWireFormRejectsInvalid checks that malformed bodies fail decoding
// instead of aliasing onto some valid run's content address.
func TestRunWireFormRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"unknown app", `{"app":"NOPE","policy":"lru","rate":50}`},
		{"unknown policy", `{"app":"HSD","policy":"magic","rate":50}`},
		{"rate zero", `{"app":"HSD","policy":"lru","rate":0}`},
		{"negative prefetch", `{"app":"HSD","policy":"lru","rate":50,"prefetch_pages":-1}`},
		{"bad design", `{"app":"HSD","policy":"lru","rate":50,"design":"tlbless"}`},
		{"scale too large", `{"app":"HSD","policy":"lru","rate":50,"scale":65}`},
		{"unknown field", `{"app":"HSD","policy":"lru","rate":50,"prefetch":2}`},
		{"legacy nested options", `{"app":"HSD","policy":"lru","rate":50,"options":{"scale":4}}`},
	}
	for _, tc := range cases {
		if _, _, err := runspec.DecodeID(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: accepted %s", tc.name, tc.body)
		}
	}
}

// TestNormalizeSuiteWorkersHintExcluded checks the PR-1 determinism contract
// is reflected in the content address: sweeps differing only in the
// parallelism hint share one ID (and therefore one cache entry).
func TestNormalizeSuiteWorkersHintExcluded(t *testing.T) {
	a := SuiteRequest{IDs: []string{"fig10"}, Quick: true, Workers: 1}
	b := SuiteRequest{IDs: []string{"fig10"}, Quick: true, Workers: 8}
	idA, err := NormalizeSuite(&a)
	if err != nil {
		t.Fatalf("normalize a: %v", err)
	}
	idB, err := NormalizeSuite(&b)
	if err != nil {
		t.Fatalf("normalize b: %v", err)
	}
	if idA != idB {
		t.Errorf("workers hint perturbed the content address: %s vs %s", idA, idB)
	}
	if a.Seed != 1 {
		t.Errorf("default seed not made explicit: %+v", a)
	}

	c := SuiteRequest{IDs: []string{"fig10"}, Quick: false}
	idC, err := NormalizeSuite(&c)
	if err != nil {
		t.Fatalf("normalize c: %v", err)
	}
	if idC == idA {
		t.Errorf("quick and full sweeps share a content address")
	}

	d := SuiteRequest{IDs: []string{"fig99"}}
	if _, err := NormalizeSuite(&d); err == nil {
		t.Errorf("unknown experiment accepted")
	}

	e := SuiteRequest{}
	if _, err := NormalizeSuite(&e); err != nil {
		t.Fatalf("empty IDs (meaning all): %v", err)
	}
	if len(e.IDs) == 0 {
		t.Errorf("empty IDs not expanded to the full catalog")
	}
}
