package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"hpe"
	"hpe/internal/server"
)

// Shard dispatch: one run spec travels to the backend owning its content
// address, with bounded retry and re-dispatch when the owner is dead, broken,
// or saturated. The walk order is the ring's preference sequence, filtered to
// usable backends at attempt time — so "handle backend loss" is not a special
// code path: a dead owner is simply skipped and the shard lands on the next
// backend clockwise, exactly where consistent hashing says it belongs.

// errNoBackends reports a shard that exhausted every attempt without finding
// a backend able to run it.
var errNoBackends = errors.New("no usable backend")

// dispatchRun executes one run spec on the cluster and returns the owning
// backend's response body verbatim, with rr holding that body decoded.
// Determinism makes any backend's bytes THE bytes, so the coordinator can
// cache and serve them unmodified; a sweep reads the result from rr instead
// of decoding the bytes a second time.
func (c *Coordinator) dispatchRun(ctx context.Context, sp hpe.RunSpec, id string, rr *server.RunResponse) ([]byte, error) {
	specBody, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("encode spec: %w", err)
	}
	seq := c.ring.sequence(id)
	backoff := c.cfg.BackoffBase
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			// Deterministic exponential backoff between rounds; per-backend
			// windows already smear concurrent shards, so no jitter source
			// (and no RNG) is needed.
			if err := sleepCtx(ctx, backoff); err != nil {
				return nil, err
			}
			if backoff *= 2; backoff > c.cfg.BackoffMax {
				backoff = c.cfg.BackoffMax
			}
		}
		tried := 0
		for ownerIdx, name := range seq {
			b := c.backends[name]
			if !b.usable(time.Now(), c.cfg.BreakerThreshold) {
				continue
			}
			tried++
			if ownerIdx > 0 || attempt > 0 {
				c.met.redispatch()
			}
			body, retryAfter, err := c.tryBackend(ctx, b, specBody, id, rr)
			if err == nil {
				return body, nil
			}
			var rejected *server.Error
			if errors.As(err, &rejected) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = fmt.Errorf("%s: %w", b.name, err)
			if retryAfter > 0 {
				// Backpressure, not death: the backend asked us to pace.
				// Honor its hint (bounded) before the next attempt instead
				// of hammering the rest of the ring with a shard that will
				// queue anyway.
				if retryAfter > c.cfg.BackoffMax {
					retryAfter = c.cfg.BackoffMax
				}
				if err := sleepCtx(ctx, retryAfter); err != nil {
					return nil, err
				}
			}
		}
		if tried == 0 {
			lastErr = errNoBackends
		}
	}
	if lastErr == nil {
		lastErr = errNoBackends
	}
	return nil, fmt.Errorf("shard %s: %w", id, lastErr)
}

// tryBackend runs one attempt against one backend. On success rr holds the
// decoded answer, whose ID must be the shard's: the body is decoded exactly
// once. A positive retryAfter reports backpressure (429/503 with a
// Retry-After hint); err then describes the rejection. Transport failures,
// 5xx responses, malformed bodies and answers for another run are charged to
// the breaker; backpressure and 4xx rejections are not (the backend is
// healthy — it is full, or the request is wrong).
func (c *Coordinator) tryBackend(ctx context.Context, b *backend, specBody []byte, id string, rr *server.RunResponse) (body []byte, retryAfter time.Duration, err error) {
	release, err := b.acquire(ctx)
	if err != nil {
		return nil, 0, err
	}
	defer release()

	// A dispatch bound only by the caller's context would hang forever on a
	// backend that stops answering without closing connections (paused
	// process): tie this attempt to the backend's liveness, so the next
	// failed health probe abandons it and the ring walk takes over.
	rctx, rcancel := context.WithCancel(ctx)
	defer rcancel()
	defer b.watchDeath(rcancel)()

	req, err := http.NewRequestWithContext(rctx, http.MethodPost, b.name+"/v1/runs", bytes.NewReader(specBody))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		return nil, 0, err
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		// Reset first: Unmarshal merges into what an earlier failed attempt
		// left behind.
		*rr = server.RunResponse{}
		if err := json.Unmarshal(raw, rr); err != nil {
			b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
			return nil, 0, fmt.Errorf("malformed run response: %w", err)
		}
		if rr.ID != id {
			b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
			return nil, 0, fmt.Errorf("backend answered run %s for shard %s", rr.ID, id)
		}
		d := time.Since(start)
		b.recordSuccess(d)
		c.met.shardDone(b.name, d)
		return raw, 0, nil

	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		hint := time.Second
		if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
			hint = time.Duration(s) * time.Second
		}
		return nil, hint, fmt.Errorf("backend backpressure (%d)", resp.StatusCode)

	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		// The request itself is wrong: retrying cannot fix it, and the
		// backend's envelope reaches the client verbatim.
		eb, ok := server.DecodeError(raw)
		if !ok {
			eb = server.ErrorBody{Code: server.ErrInternal, Message: string(raw)}
		}
		return nil, 0, &server.Error{Status: resp.StatusCode, Body: eb}

	default:
		b.recordFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
		return nil, 0, fmt.Errorf("backend status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
}

// maxResponseBytes bounds one backend response read (a full-catalog suite
// body is ~1 MiB; run bodies are a few KiB).
const maxResponseBytes = 64 << 20

// proxyGet performs one GET against one backend and returns status + body.
func (c *Coordinator) proxyGet(ctx context.Context, name, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, name+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
