package flight

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

// blocker is a computation that runs until released or cancelled, exposing
// its context so tests can see whether it was cancelled.
type blocker struct {
	started chan context.Context
	release chan struct{}
}

func newBlocker() *blocker {
	return &blocker{started: make(chan context.Context, 1), release: make(chan struct{})}
}

func (b *blocker) compute(ctx context.Context) ([]byte, error) {
	b.started <- ctx
	select {
	case <-b.release:
		return []byte("done"), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// waitWaiters polls until id's flight has n waiters.
func waitWaiters(t *testing.T, g *Group, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if w, ok := g.Inflight(id); ok && w == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %s never reached %d waiters", id, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOnlyLastWaiterCancels: a leader that leaves does not cancel work
// another waiter still wants; the last waiter to leave does.
func TestOnlyLastWaiterCancels(t *testing.T) {
	g := NewGroup()
	b := newBlocker()
	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	joinerCtx, joinerCancel := context.WithCancel(context.Background())
	defer leaderCancel()
	defer joinerCancel()

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, context.Background(), "k", b.compute)
		leaderDone <- err
	}()
	runCtx := <-b.started
	joinerDone := make(chan error, 1)
	go func() {
		_, coalesced, err := g.Do(joinerCtx, context.Background(), "k", b.compute)
		if !coalesced {
			err = errors.New("second caller did not coalesce")
		}
		joinerDone <- err
	}()
	waitWaiters(t, g, "k", 2)

	leaderCancel()
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed leader got %v, want context.Canceled", err)
	}
	// The departing waiter cancels synchronously or not at all, so the
	// computation's context is already final here.
	if runCtx.Err() != nil {
		t.Fatal("leader's departure cancelled a computation another waiter still wants")
	}

	joinerCancel()
	if err := <-joinerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed joiner got %v, want context.Canceled", err)
	}
	if runCtx.Err() == nil {
		t.Fatal("last waiter departed but the computation was not cancelled")
	}
}

// TestPanicBecomesError: a panicking computation reaches every caller as an
// error instead of crashing the process, and the flight is cleared.
func TestPanicBecomesError(t *testing.T) {
	g := NewGroup()
	body, _, err := g.Do(context.Background(), context.Background(), "boom",
		func(context.Context) ([]byte, error) { panic("bad run") })
	if err == nil || body != nil {
		t.Fatalf("panicking compute returned body=%q err=%v, want an error", body, err)
	}
	if _, ok := g.Inflight("boom"); ok {
		t.Fatal("panicked flight still registered")
	}
	// The key is reusable after the failure.
	body, _, err = g.Do(context.Background(), context.Background(), "boom",
		func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" {
		t.Fatalf("re-run after panic: body=%q err=%v", body, err)
	}
}

// TestCountsAndOrder: InflightIDs lists flights in canonical order,
// Coalesced counts only joiners, and finished flights disappear.
func TestCountsAndOrder(t *testing.T) {
	g := NewGroup()
	blockers := map[string]*blocker{"b": newBlocker(), "a": newBlocker(), "c": newBlocker()}
	results := make(chan string, 8)
	start := func(id string) {
		go func() {
			body, _, err := g.Do(context.Background(), context.Background(), id, blockers[id].compute)
			if err != nil {
				results <- "error: " + err.Error()
				return
			}
			results <- id + ":" + string(body)
		}()
	}
	for _, id := range []string{"b", "a", "c"} {
		start(id)
		<-blockers[id].started
	}
	start("a")
	start("a")
	waitWaiters(t, g, "a", 3)

	if got, want := g.InflightIDs(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("InflightIDs() = %v, want %v", got, want)
	}
	if got := g.Coalesced(); got != 2 {
		t.Fatalf("Coalesced() = %d, want 2", got)
	}

	close(blockers["a"].release)
	for i := 0; i < 3; i++ {
		if r := <-results; r != "a:done" {
			t.Fatalf("waiter on a got %q", r)
		}
	}
	if got, want := g.InflightIDs(), []string{"b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after a finished, InflightIDs() = %v, want %v", got, want)
	}
	close(blockers["b"].release)
	close(blockers["c"].release)
	<-results
	<-results
	if ids := g.InflightIDs(); len(ids) != 0 {
		t.Fatalf("finished flights still listed: %v", ids)
	}
	if got := g.Coalesced(); got != 2 {
		t.Fatalf("Coalesced() = %d after completion, want 2", got)
	}
}
