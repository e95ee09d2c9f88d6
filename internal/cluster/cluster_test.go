package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpe"
	"hpe/internal/server"
)

// --- chaos harness -------------------------------------------------------
//
// Each test backend is a real server.Server behind a chaos gate that can
// simulate the two loss modes the coordinator must survive: a kill
// (connections reset, every new connection refused — a crashed process) and
// a pause (every request, including /healthz, blocks — a SIGSTOPped process
// or dead NIC). It can also damage the run answers of a live backend: a body
// naming another run, or a body cut short. The coordinator under test talks
// to the gates over real HTTP, so what the tests exercise is the exact
// production path: transport errors, health-probe timeouts, death-watch
// cancellation, ring-walk re-dispatch.

type chaosBackend struct {
	srv  *server.Server
	ts   *httptest.Server
	gate *chaosGate

	conns atomic.Int64 // connections the backend accepted (http.StateNew)
}

// answerMode selects how the gate damages a successful POST /v1/runs answer.
type answerMode int32

const (
	answerIntact    answerMode = iota
	answerWrongID              // the body names another run's id
	answerTruncated            // the body is cut in half
)

// otherRunID is a well-formed run id no spec hashes to in practice.
const otherRunID = "run-v2-00000000000000000000000000000000"

type chaosGate struct {
	inner http.Handler

	killed atomic.Bool
	paused atomic.Pointer[chan struct{}] // non-nil while paused; closed to resume

	answer  atomic.Int32 // an answerMode
	damaged atomic.Int64 // run answers the gate damaged

	runPosts atomic.Int64 // POST /v1/runs requests seen
	// killAt / pauseAt, when positive, trigger the matching failure upon
	// seeing that many run POSTs — a deterministic mid-sweep crash or hang.
	killAt   atomic.Int64
	pauseAt  atomic.Int64
	killrun  func()
	pauserun func()
}

func (g *chaosGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
		n := g.runPosts.Add(1)
		if at := g.killAt.Load(); at > 0 && n == at {
			g.killrun()
		}
		if at := g.pauseAt.Load(); at > 0 && n == at {
			g.pauserun()
		}
	}
	if g.killed.Load() {
		// A crashed process does not write an HTTP response: drop the
		// connection on the floor.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	if ch := g.paused.Load(); ch != nil {
		<-*ch // blocked until resumed; health probes time out meanwhile
		if g.killed.Load() {
			panic(http.ErrAbortHandler)
		}
	}
	if mode := answerMode(g.answer.Load()); mode != answerIntact &&
		r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
		rec := httptest.NewRecorder()
		g.inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = damageAnswer(mode, body)
			g.damaged.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// damageAnswer rewrites one RunResponse body the way mode says.
func damageAnswer(mode answerMode, body []byte) []byte {
	switch mode {
	case answerWrongID:
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			panic(err)
		}
		return bytes.Replace(body, []byte(`"id":"`+rr.ID+`"`), []byte(`"id":"`+otherRunID+`"`), 1)
	case answerTruncated:
		return body[:len(body)/2]
	}
	return body
}

func newChaosBackend(t *testing.T, workers int) *chaosBackend {
	t.Helper()
	srv := server.New(server.Config{Workers: workers})
	gate := &chaosGate{inner: srv.Handler()}
	ts := httptest.NewUnstartedServer(gate)
	cb := &chaosBackend{srv: srv, ts: ts, gate: gate}
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			cb.conns.Add(1)
		}
	}
	ts.Start()
	gate.killrun = cb.kill
	gate.pauserun = cb.pause
	t.Cleanup(func() {
		cb.resume() // never leave handler goroutines blocked on the pause gate
		cb.ts.Close()
		cb.srv.Close()
	})
	return cb
}

// kill simulates a crash: future connections are dropped and in-flight ones
// reset mid-body.
func (cb *chaosBackend) kill() {
	cb.gate.killed.Store(true)
	go cb.ts.CloseClientConnections()
}

// pause simulates a hung process: every request blocks until resume.
func (cb *chaosBackend) pause() {
	ch := make(chan struct{})
	cb.gate.paused.Store(&ch)
}

func (cb *chaosBackend) resume() {
	if ch := cb.gate.paused.Swap(nil); ch != nil {
		close(*ch)
	}
}

// testCluster is N chaos backends plus a coordinator over them.
type testCluster struct {
	backends []*chaosBackend
	coord    *Coordinator
	front    *httptest.Server
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		cb := newChaosBackend(t, 2)
		tc.backends = append(tc.backends, cb)
		urls[i] = cb.ts.URL
	}
	// HealthTimeout must tolerate scheduler starvation: on a small machine
	// the backends' CPU-bound simulations share cores with the /healthz
	// handlers, and a too-tight probe deadline declares healthy-but-busy
	// backends dead mid-sweep. 2s is far past any plausible handler delay
	// while still making the pause tests finish quickly.
	coord, err := New(Config{
		Backends:         urls,
		HealthInterval:   100 * time.Millisecond,
		HealthTimeout:    2 * time.Second,
		MaxAttempts:      5,
		BackoffBase:      10 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		tc.front.Close()
		coord.Close()
	})
	return tc
}

// --- HTTP helpers --------------------------------------------------------

func post(t *testing.T, base, path, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, b, resp.Header
}

func get(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, b
}

// quickSuiteBody sweeps the deterministic figure experiments over the quick
// subset. The overhead experiment is excluded on purpose: it embeds host
// wall-clock measurements, so no two executions are byte-identical anywhere
// — single node included.
const quickSuiteBody = `{"ids":["fig10","fig12"],"quick":true,"seed":1}`

// singleNodeSuiteGolden computes the sweep on one undamaged backend directly
// — the single-node truth the coordinator's merged body must equal.
func singleNodeSuiteGolden(t *testing.T, cb *chaosBackend) []byte {
	t.Helper()
	code, body, _ := post(t, cb.ts.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("single-node suite: status %d: %s", code, body)
	}
	return body
}

// --- byte-identity -------------------------------------------------------

// TestClusterSweepByteIdentical is the tentpole contract: a 3-backend
// coordinator sweep must render byte-for-byte the body a single hped
// renders for the same request.
func TestClusterSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-subset sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 3)
	code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("coordinator suite: status %d: %s", code, merged)
	}
	golden := singleNodeSuiteGolden(t, tc.backends[0])
	if !bytes.Equal(merged, golden) {
		t.Fatalf("merged sweep differs from single-node run:\nmerged %d bytes, single %d bytes",
			len(merged), len(golden))
	}
	// Every backend took a share of the matrix: the coordinator sharded, it
	// did not just proxy the whole sweep to one node.
	shared := 0
	for i, cb := range tc.backends {
		if n := cb.gate.runPosts.Load(); n > 0 {
			shared++
		} else {
			t.Logf("backend %d received no shards", i)
		}
	}
	if shared < 2 {
		t.Fatalf("only %d backends received shards; consistent hashing should spread the matrix", shared)
	}
	// The merged body is cached: a re-POST is a coordinator cache hit.
	code, again, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK || !bytes.Equal(again, merged) {
		t.Fatalf("cached re-sweep: status %d, bytes equal %t", code, bytes.Equal(again, merged))
	}
}

// TestClusterSuiteDispatchesPlannedCells checks that a coordinator sweep
// dispatches only the cells its experiments read: temporal's nine variant
// cells over the quick subset, and none of the 120-cell comparison grid.
// The merged body still equals the body one node renders from a serial run.
func TestClusterSuiteDispatchesPlannedCells(t *testing.T) {
	tc := newTestCluster(t, 2)
	const body = `{"ids":["temporal"],"quick":true}`
	code, merged, _ := post(t, tc.front.URL, "/v1/suite", body)
	if code != http.StatusOK {
		t.Fatalf("coordinator suite: status %d: %s", code, merged)
	}
	var shards uint64
	tc.coord.met.mu.Lock()
	for _, n := range tc.coord.met.shards {
		shards += n
	}
	tc.coord.met.mu.Unlock()
	if shards != 9 {
		t.Fatalf("coordinator dispatched %d shards for temporal, want its 9 cells", shards)
	}

	var req server.SuiteRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	id, err := server.NormalizeSuite(&req)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := hpe.NewSuite(hpe.SuiteOptions{Quick: req.Quick, Seed: req.Seed}).Reports(req.IDs)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := server.RenderSuiteBody(id, req, reports)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, golden) {
		t.Fatalf("merged sweep differs from the single-node body:\nmerged %d bytes, single %d bytes",
			len(merged), len(golden))
	}
}

// TestClusterRunByteIdentical checks the single-run path: the coordinator
// relays the owning backend's RunResponse verbatim, so the bytes equal a
// direct single-node submission's.
func TestClusterRunByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3)
	const spec = `{"app":"HOT","policy":"hpe","rate":75}`
	code, viaCluster, _ := post(t, tc.front.URL, "/v1/runs", spec)
	if code != http.StatusOK {
		t.Fatalf("coordinator run: status %d: %s", code, viaCluster)
	}
	code, direct, _ := post(t, tc.backends[1].ts.URL, "/v1/runs", spec)
	if code != http.StatusOK {
		t.Fatalf("direct run: status %d", code)
	}
	if !bytes.Equal(viaCluster, direct) {
		t.Fatal("coordinator run body differs from single-node body")
	}
	var rr server.RunResponse
	if err := json.Unmarshal(viaCluster, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	if rr.ID == "" || rr.Result.Accesses == 0 {
		t.Fatalf("suspicious run response: %+v", rr)
	}
	// GET /v1/runs/{id} resolves cluster-wide (coordinator cache here).
	code, fetched := get(t, tc.front.URL, "/v1/runs/"+rr.ID)
	if code != http.StatusOK || !bytes.Equal(fetched, viaCluster) {
		t.Fatalf("GET by id: status %d, bytes equal %t", code, bytes.Equal(fetched, viaCluster))
	}
}

// TestClusterScenarioRunByteIdentical checks workload-v2 specs ride the same
// relay: a phase-schedule run and a colocated two-tenant run each produce
// byte-identical bodies through the coordinator and a direct single-node
// submission, and the colocated body carries per-tenant attribution.
func TestClusterScenarioRunByteIdentical(t *testing.T) {
	tc := newTestCluster(t, 3)
	specs := []string{
		`{"phases":"HOT:16,HSD:32,HOT:16","policy":"lru","rate":75}`,
		`{"tenants":"HSD,BFS","interleave":512,"policy":"hpe","rate":75}`,
	}
	for _, spec := range specs {
		code, viaCluster, _ := post(t, tc.front.URL, "/v1/runs", spec)
		if code != http.StatusOK {
			t.Fatalf("coordinator scenario run: status %d: %s", code, viaCluster)
		}
		code, direct, _ := post(t, tc.backends[0].ts.URL, "/v1/runs", spec)
		if code != http.StatusOK {
			t.Fatalf("direct scenario run: status %d", code)
		}
		if !bytes.Equal(viaCluster, direct) {
			t.Fatalf("scenario %s: coordinator body differs from single-node body", spec)
		}
	}
	var rr server.RunResponse
	code, body, _ := post(t, tc.front.URL, "/v1/runs", specs[1])
	if code != http.StatusOK {
		t.Fatalf("cached scenario re-run: status %d", code)
	}
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode run response: %v", err)
	}
	if len(rr.Result.Driver.Tenants) != 2 {
		t.Fatalf("colocated run body lacks per-tenant stats: %+v", rr.Result.Driver.Tenants)
	}
}

// --- chaos ---------------------------------------------------------------

// TestBackendKilledMidSweep crashes one backend partway through a sweep: its
// connections reset, the health loop marks it dead, and its shards
// re-dispatch around the ring. The merged body must still be byte-identical
// to a single-node run.
func TestBackendKilledMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 3)
	// Crash backend 2 at its 3rd shard — deterministically mid-sweep.
	tc.backends[2].gate.killAt.Store(3)

	code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("sweep with mid-flight crash: status %d: %s", code, merged)
	}
	if n := tc.backends[2].gate.runPosts.Load(); n < 3 {
		t.Fatalf("backend 2 saw %d run posts; the crash never happened mid-sweep", n)
	}
	if got := tc.coord.met.redispatchCount(); got == 0 {
		t.Fatal("no re-dispatches recorded despite a crashed backend")
	}
	golden := singleNodeSuiteGolden(t, tc.backends[0])
	if !bytes.Equal(merged, golden) {
		t.Fatal("post-crash merged sweep differs from single-node run")
	}
}

// TestBackendPausedPastHealthDeadline hangs one backend without closing its
// connections — the nastier failure: in-flight shards block silently. The
// death watch must abandon them once the health probe times out, and the
// sweep must complete byte-identical on the survivors.
func TestBackendPausedPastHealthDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 3)
	// Hang backend 1 on its 3rd shard — deterministically mid-sweep. The
	// triggering request itself blocks inside the gate, exactly like a
	// process that stops scheduling with a request half-served.
	tc.backends[1].gate.pauseAt.Store(3)

	code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
	if code != http.StatusOK {
		t.Fatalf("sweep with paused backend: status %d: %s", code, merged)
	}
	if tc.backends[1].gate.paused.Load() == nil {
		t.Fatal("pause never triggered; the chaos never happened")
	}
	if got := tc.coord.met.redispatchCount(); got == 0 {
		t.Fatal("no re-dispatches recorded despite a paused backend")
	}
	golden := singleNodeSuiteGolden(t, tc.backends[0])
	if !bytes.Equal(merged, golden) {
		t.Fatal("post-pause merged sweep differs from single-node run")
	}
}

// TestSweepChargesBadShardAnswers has one live backend answer every run
// POST with a damaged body: in one mode the body names another run, in the
// other it is cut short. Either answer must be charged to that backend's
// breaker and its shard re-dispatched, never merged: no shard completes
// there, and the sweep still equals a single-node run byte for byte.
func TestSweepChargesBadShardAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep skipped in -short mode")
	}
	for _, mode := range []struct {
		name   string
		answer answerMode
	}{
		{"wrong-id", answerWrongID},
		{"truncated", answerTruncated},
	} {
		t.Run(mode.name, func(t *testing.T) {
			tc := newTestCluster(t, 3)
			bad := tc.backends[2]
			bad.gate.answer.Store(int32(mode.answer))

			code, merged, _ := post(t, tc.front.URL, "/v1/suite", quickSuiteBody)
			if code != http.StatusOK {
				t.Fatalf("sweep with a bad backend: status %d: %s", code, merged)
			}
			if bad.gate.damaged.Load() == 0 {
				t.Fatal("the bad backend answered no shard; the chaos never happened")
			}
			snap := tc.coord.backends[bad.ts.URL].snapshot(time.Now(), tc.coord.cfg.BreakerThreshold)
			if snap.Failures == 0 {
				t.Fatal("damaged answers were not charged to the backend's breaker")
			}
			if snap.Dispatched != 0 {
				t.Fatalf("%d shards completed on the bad backend; its answers must never be merged", snap.Dispatched)
			}
			if got := tc.coord.met.redispatchCount(); got == 0 {
				t.Fatal("no re-dispatches recorded despite damaged answers")
			}
			golden := singleNodeSuiteGolden(t, tc.backends[0])
			if !bytes.Equal(merged, golden) {
				t.Fatal("merged sweep with a bad backend differs from single-node run")
			}
		})
	}
}

// TestSweepReusesBackendConnections checks that shards ride kept-alive
// connections, so the connections a backend accepts are bounded by its
// dispatch window, not by how many shards it serves. A backend never has
// more than window+1 requests from the coordinator in flight (a full window
// plus a health probe), so once it holds window+1 connections a request
// always finds one idle. The first sweep may overshoot that by a few: a
// request that finds none idle starts a dial, and net/http keeps the dialed
// connection even when another frees first. After it, the pool is warm:
// two more sweeps of the same cells, answered from the backends' caches
// and so turning over shards fastest, must not dial at all.
func TestSweepReusesBackendConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-subset sweep skipped in -short mode")
	}
	tc := newTestCluster(t, 2)
	sweep := func(body string) {
		t.Helper()
		code, merged, _ := post(t, tc.front.URL, "/v1/suite", body)
		if code != http.StatusOK {
			t.Fatalf("coordinator suite %s: status %d: %s", body, code, merged)
		}
	}
	sweep(quickSuiteBody)
	warm := make([]int64, len(tc.backends))
	for i, cb := range tc.backends {
		warm[i] = cb.conns.Load()
	}
	sweep(`{"ids":["fig10"],"quick":true,"seed":1}`)
	sweep(`{"ids":["fig12"],"quick":true,"seed":1}`)

	for i, cb := range tc.backends {
		snap := tc.coord.backends[cb.ts.URL].snapshot(time.Now(), tc.coord.cfg.BreakerThreshold)
		window := int64(snap.Workers + snap.Queue)
		if snap.Dispatched <= uint64(4*(window+1)) {
			t.Fatalf("backend %d served %d shards; too few to tell reuse from dialing per shard (window %d)",
				i, snap.Dispatched, window)
		}
		n := cb.conns.Load()
		if n > max(warm[i], window+1) {
			t.Errorf("backend %d accepted %d connections, %d after the first sweep: the warm pool (window %d plus 1) still dialed",
				i, n, warm[i], window)
		}
		if n > 2*(window+1) {
			t.Errorf("backend %d accepted %d connections for %d shards; want well under twice its window %d plus 1",
				i, n, snap.Dispatched, window)
		}
	}
}

// TestAllBackendsDead pins the exhaustion envelope: with every backend gone,
// a run submission fails with 503 backend_unavailable — the coordinator's
// one addition to the shared error vocabulary.
func TestAllBackendsDead(t *testing.T) {
	tc := newTestCluster(t, 2)
	for _, cb := range tc.backends {
		cb.kill()
	}
	tc.coord.CheckHealth(tc.coord.baseCtx)

	code, body, hdr := post(t, tc.front.URL, "/v1/runs", `{"app":"HOT","policy":"lru","rate":75}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", code, body)
	}
	eb, ok := server.DecodeError(body)
	if !ok || eb.Code != server.ErrBackendUnavailable {
		t.Fatalf("error envelope = %+v (ok=%t), want code backend_unavailable", eb, ok)
	}
	if eb.RunID == "" {
		t.Fatal("envelope missing the run id the request resolved to")
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After hint")
	}
	// The coordinator's own health now fails too.
	code, body = get(t, tc.front.URL, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no live backends: status %d: %s", code, body)
	}
}

// TestBackendRecovery kills a backend, then resurrects it (same address) and
// checks the health loop brings it back into rotation — the consistent-hash
// ring needs no rebuild.
func TestBackendRecovery(t *testing.T) {
	tc := newTestCluster(t, 2)
	cb := tc.backends[0]
	cb.kill()
	tc.coord.CheckHealth(tc.coord.baseCtx)
	if tc.coord.backends[cb.ts.URL].isAlive() {
		t.Fatal("killed backend still marked alive after a health round")
	}
	// Resurrect: clear the kill flag (the gate answers again).
	cb.gate.killed.Store(false)
	tc.coord.CheckHealth(tc.coord.baseCtx)
	if !tc.coord.backends[cb.ts.URL].isAlive() {
		t.Fatal("recovered backend not marked alive after a health round")
	}
	code, body, _ := post(t, tc.front.URL, "/v1/runs", `{"app":"STN","policy":"lru","rate":75}`)
	if code != http.StatusOK {
		t.Fatalf("run after recovery: status %d: %s", code, body)
	}
}

// --- enumeration ---------------------------------------------------------

func TestMergedEnumeration(t *testing.T) {
	tc := newTestCluster(t, 3)
	specs := []string{
		`{"app":"HOT","policy":"lru","rate":75}`,
		`{"app":"STN","policy":"lru","rate":75}`,
		`{"app":"SGM","policy":"lru","rate":50}`,
		`{"app":"NW","policy":"hpe","rate":50}`,
	}
	var ids []string
	for _, sp := range specs {
		code, body, _ := post(t, tc.front.URL, "/v1/runs", sp)
		if code != http.StatusOK {
			t.Fatalf("run: status %d: %s", code, body)
		}
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rr.ID)
	}

	code, body := get(t, tc.front.URL, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list: status %d: %s", code, body)
	}
	var list server.RunListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	got := map[string]server.RunListEntry{}
	for i, e := range list.Runs {
		got[e.ID] = e
		if i > 0 && list.Runs[i-1].ID >= e.ID {
			t.Fatalf("listing out of canonical order: %q before %q", list.Runs[i-1].ID, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := got[id]
		if !ok {
			t.Fatalf("run %s missing from merged enumeration", id)
		}
		if e.Status != "cached" || e.Kind != "run" || e.Summary == "" {
			t.Fatalf("entry %+v: want cached run with a summary", e)
		}
	}

	// Pagination walks the same set.
	var paged []string
	after := ""
	for {
		path := "/v1/runs?limit=2"
		if after != "" {
			path += "&after=" + after
		}
		code, body := get(t, tc.front.URL, path)
		if code != http.StatusOK {
			t.Fatalf("paged list: status %d", code)
		}
		var page server.RunListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			t.Fatal(err)
		}
		if len(page.Runs) > 2 {
			t.Fatalf("page holds %d entries, limit was 2", len(page.Runs))
		}
		for _, e := range page.Runs {
			paged = append(paged, e.ID)
		}
		if !page.Truncated {
			break
		}
		after = page.Runs[len(page.Runs)-1].ID
	}
	if len(paged) != len(list.Runs) {
		t.Fatalf("pagination yielded %d entries, full listing %d", len(paged), len(list.Runs))
	}
	for i, e := range list.Runs {
		if paged[i] != e.ID {
			t.Fatalf("pagination order diverges at %d: %q vs %q", i, paged[i], e.ID)
		}
	}

	// Workload-v2 specs have no app: the coordinator must list them with the
	// summary their owning backend lists ("phases:…", "tenants:…").
	for _, sp := range []string{
		`{"phases":"HOT:32,HSD:96","policy":"lru","rate":75}`,
		`{"tenants":"HSD,BFS","policy":"lru","rate":75}`,
	} {
		code, body, _ := post(t, tc.front.URL, "/v1/runs", sp)
		if code != http.StatusOK {
			t.Fatalf("scenario run: status %d: %s", code, body)
		}
		var rr server.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		backendEntry, ok := listedEntry(t, tc.backends[0].ts.URL, rr.ID)
		for _, cb := range tc.backends[1:] {
			if !ok {
				backendEntry, ok = listedEntry(t, cb.ts.URL, rr.ID)
			}
		}
		if !ok || backendEntry.Summary == "" {
			t.Fatalf("no backend lists %s with a summary", rr.ID)
		}
		coordEntry, ok := listedEntry(t, tc.front.URL, rr.ID)
		if !ok || coordEntry.Summary != backendEntry.Summary {
			t.Fatalf("coordinator lists %s as %q, backend as %q", rr.ID, coordEntry.Summary, backendEntry.Summary)
		}
	}
}

// listedEntry finds id in base's GET /v1/runs listing.
func listedEntry(t *testing.T, base, id string) (server.RunListEntry, bool) {
	t.Helper()
	code, body := get(t, base, "/v1/runs")
	if code != http.StatusOK {
		t.Fatalf("list %s: status %d: %s", base, code, body)
	}
	var list server.RunListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	for _, e := range list.Runs {
		if e.ID == id {
			return e, true
		}
	}
	return server.RunListEntry{}, false
}

// --- surface parity ------------------------------------------------------

func TestCatalogParity(t *testing.T) {
	tc := newTestCluster(t, 1)
	for _, path := range []string{"/v1/policies", "/v1/apps", "/v1/scenarios"} {
		code, viaCoord := get(t, tc.front.URL, path)
		if code != http.StatusOK {
			t.Fatalf("coordinator %s: status %d", path, code)
		}
		code, direct := get(t, tc.backends[0].ts.URL, path)
		if code != http.StatusOK {
			t.Fatalf("backend %s: status %d", path, code)
		}
		if !bytes.Equal(viaCoord, direct) {
			t.Fatalf("%s differs between coordinator and backend", path)
		}
	}
}

func TestBadSpecEnvelopeParity(t *testing.T) {
	tc := newTestCluster(t, 1)
	const bad = `{"app":"NOPE","policy":"lru","rate":75}`
	code, viaCoord, _ := post(t, tc.front.URL, "/v1/runs", bad)
	code2, direct, _ := post(t, tc.backends[0].ts.URL, "/v1/runs", bad)
	if code != http.StatusBadRequest || code2 != http.StatusBadRequest {
		t.Fatalf("statuses %d/%d, want 400/400", code, code2)
	}
	ec, ok1 := server.DecodeError(viaCoord)
	ed, ok2 := server.DecodeError(direct)
	if !ok1 || !ok2 || ec.Code != server.ErrBadSpec || ed.Code != server.ErrBadSpec {
		t.Fatalf("envelopes %+v / %+v, want bad_spec on both layers", ec, ed)
	}
}

func TestClusterMetricsExposition(t *testing.T) {
	tc := newTestCluster(t, 2)
	code, body, _ := post(t, tc.front.URL, "/v1/runs", `{"app":"HOT","policy":"lru","rate":75}`)
	if code != http.StatusOK {
		t.Fatalf("run: status %d: %s", code, body)
	}
	code, metrics := get(t, tc.front.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	text := string(metrics)
	for _, want := range []string{
		"hped_cluster_shards_total",
		"hped_cluster_redispatched_total",
		"hped_cluster_backend_up",
		"hped_cluster_backend_capacity_rps",
		"hped_cluster_capacity_rps",
		"hped_cluster_backends_live 2",
		"hped_cluster_shard_latency_seconds_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// One shard completed: the saturation analyzer has an estimate now.
	sat := tc.coord.Saturation()
	if sat.Live != 2 || sat.ClusterRPS <= 0 {
		t.Fatalf("saturation after one shard: %+v", sat)
	}
}

// --- soak ----------------------------------------------------------------

// TestCoordinatorSoak hammers the coordinator's full surface concurrently;
// run under -race it is the cluster's data-race canary.
func TestCoordinatorSoak(t *testing.T) {
	tc := newTestCluster(t, 3)
	specs := []string{
		`{"app":"HOT","policy":"lru","rate":75}`,
		`{"app":"STN","policy":"lru","rate":75}`,
		`{"app":"HOT","policy":"hpe","rate":50}`,
		`{"app":"SGM","policy":"clockpro","rate":75}`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch (g + i) % 4 {
				case 0, 1:
					code, body, _ := post(t, tc.front.URL, "/v1/runs", specs[(g+i)%len(specs)])
					if code != http.StatusOK {
						errs <- fmt.Errorf("run status %d: %s", code, body)
					}
				case 2:
					if code, _ := get(t, tc.front.URL, "/v1/runs?limit=10"); code != http.StatusOK {
						errs <- fmt.Errorf("list status %d", code)
					}
				case 3:
					if code, _ := get(t, tc.front.URL, "/metrics"); code != http.StatusOK {
						errs <- fmt.Errorf("metrics status %d", code)
					}
				}
			}
		}(g)
	}
	// Meanwhile the health loop keeps probing and one backend flaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			tc.backends[2].pause()
			time.Sleep(120 * time.Millisecond)
			tc.backends[2].resume()
			time.Sleep(120 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
