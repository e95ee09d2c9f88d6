package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpe/internal/runspec"
)

// --- coalescing end-to-end ------------------------------------------------

// runsSnapshot reads the leader-computation counters (test helper).
func (m *serverMetrics) runsSnapshot() (started, completed, cancelled, failed uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runsStarted, m.runsCompleted, m.runsCancelled, m.runsFailed
}

// slowRunBody is a run spec slow enough (~hundreds of ms, more under
// -race) that a second client reliably arrives while it is in flight.
const slowRunBody = `{"app":"BFS","policy":"hpe","rate":50,"scale":4}`

// postRun submits a run and returns (status, X-Hped-Source, body). Transport
// errors are reported with Errorf (not Fatalf) so it is safe off the test
// goroutine; a zero status signals failure.
func postRun(t *testing.T, client *http.Client, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := client.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Errorf("POST /v1/runs: %v", err)
		return 0, "", nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Errorf("read body: %v", err)
		return 0, "", nil
	}
	return resp.StatusCode, resp.Header.Get("X-Hped-Source"), b
}

// TestConcurrentIdenticalRunsCoalesce is the coalescing contract: two
// concurrent identical submissions yield exactly one simulation, observed
// through the coalesce counter, and both clients receive byte-identical
// bodies. Checked at 1 and 8 workers — worker count must affect neither the
// dedup nor the bytes.
func TestConcurrentIdenticalRunsCoalesce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-ms simulations skipped in -short mode")
	}
	bodies := make(map[int][]byte)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv := New(Config{Workers: workers})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			id := runspec.Spec{App: "BFS", Policy: "hpe", Rate: 50, Scale: 4}.ID()

			var wg sync.WaitGroup
			results := make([][]byte, 2)
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, _, b := postRun(t, ts.Client(), ts.URL, slowRunBody)
				if code != http.StatusOK {
					t.Errorf("leader: status %d: %s", code, b)
				}
				results[0] = b
			}()
			// Wait until the leader's computation is registered, then join it.
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, running := srv.co.Inflight(id); running {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("leader computation never became visible")
				}
				time.Sleep(time.Millisecond)
			}
			code, source, b := postRun(t, ts.Client(), ts.URL, slowRunBody)
			if code != http.StatusOK {
				t.Fatalf("follower: status %d: %s", code, b)
			}
			if source != "coalesce" {
				t.Errorf("follower source = %q, want coalesce", source)
			}
			results[1] = b
			wg.Wait()

			if got := srv.co.Coalesced(); got != 1 {
				t.Errorf("coalesced counter = %d, want 1", got)
			}
			started, completed, _, _ := localOf(srv).met.runsSnapshot()
			if started != 1 || completed != 1 {
				t.Errorf("runs started=%d completed=%d, want exactly one simulation", started, completed)
			}
			if !bytes.Equal(results[0], results[1]) {
				t.Errorf("coalesced clients saw different bodies:\n%s\n%s", results[0], results[1])
			}
			bodies[workers] = results[0]

			// A re-POST after completion is a cache hit with the same bytes.
			code, source, b = postRun(t, ts.Client(), ts.URL, slowRunBody)
			if code != http.StatusOK || source != "cache" {
				t.Errorf("re-POST: status %d source %q, want 200 from cache", code, source)
			}
			if !bytes.Equal(b, results[0]) {
				t.Errorf("cached body differs from computed body")
			}
		})
	}
	if len(bodies) == 2 && !bytes.Equal(bodies[1], bodies[8]) {
		t.Errorf("bodies differ between 1-worker and 8-worker servers:\n%s\n%s", bodies[1], bodies[8])
	}
}
