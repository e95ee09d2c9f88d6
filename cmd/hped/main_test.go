package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hpe/internal/server"
)

// syncBuffer is a goroutine-safe bytes.Buffer: run() writes from the daemon
// goroutine while the test polls for the listening line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDaemonLifecycle drives a full daemon run in-process in each mode:
// boot on an ephemeral port, serve real requests, deliver a real SIGTERM,
// and assert the drain completes within the shutdown timeout with exit
// code 0. The coordinator fronts one in-process backend.
func TestDaemonLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full daemon")
	}
	t.Run("backend", func(t *testing.T) {
		driveLifecycle(t, []string{"-workers", "2"}, "cache:")
	})
	t.Run("coordinator", func(t *testing.T) {
		backend := server.New(server.Config{Workers: 2})
		ts := httptest.NewServer(backend.Handler())
		defer func() { ts.Close(); backend.Close() }()
		driveLifecycle(t, []string{"-coordinator", "-backends", ts.URL,
			"-health-interval", "100ms"}, "cluster: 1/1 backends live")
	})
}

// driveLifecycle runs the daemon with args, exercises it over HTTP, sends
// SIGTERM, and checks the exit code and the shutdown log, whose stats line
// must contain statsLine.
func driveLifecycle(t *testing.T, args []string, statsLine string) {
	t.Helper()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(append([]string{"-addr", "127.0.0.1:0", "-shutdown-timeout", "20s"}, args...),
			&stdout, &stderr)
	}()

	// The listening line carries the resolved ephemeral address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
		}
		out := stdout.String()
		if i := strings.Index(out, "http://"); i >= 0 {
			if j := strings.IndexAny(out[i:], " \n"); j > 0 {
				base = out[i : i+j]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/runs", "application/json",
		strings.NewReader(`{"app":"KMN","policy":"lru","rate":50}`))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"id":"run-`)) {
		t.Fatalf("run response lacks content address: %s", body)
	}

	// Real signal delivery: the daemon must drain and exit 0 well within
	// the shutdown timeout.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code %d; stderr:\n%s", code, stderr.String())
		}
	case <-time.After(25 * time.Second):
		t.Fatalf("daemon did not exit after SIGTERM; stderr:\n%s", stderr.String())
	}
	logs := stderr.String()
	for _, want := range []string{"shutdown signal, draining", statsLine, "drained cleanly"} {
		if !strings.Contains(logs, want) {
			t.Errorf("shutdown log lacks %q:\n%s", want, logs)
		}
	}
	// After exit the port must be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Errorf("daemon still serving after exit")
	}
}

// TestBadFlags exercises the flag-error path without booting anything.
func TestBadFlags(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag") {
		t.Errorf("flag error not reported: %s", stderr.String())
	}
}
