package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"hpe/internal/server"
)

// GET /v1/runs on the coordinator: the front lists its own cache and
// in-flight computations (merged sweeps live only here — backends see their
// shards, not the sweep), and List adds every live backend's enumeration,
// paged through the same public endpoint clients use. The merged listing
// speaks the identical wire form and pagination surface as a single
// backend, so a client (or another coordinator) cannot tell the difference —
// reconciliation over the public API, no side channel.

// List feeds keep every live backend's full enumeration. A backend that
// fails to answer fails the listing: a partial inventory would silently
// omit its runs.
func (rc ringCompute) List(ctx context.Context, keep func(server.RunListEntry)) *server.Error {
	for _, name := range rc.liveBackends() {
		if err := rc.collectBackendList(ctx, name, keep); err != nil {
			return &server.Error{Status: http.StatusServiceUnavailable, Body: server.ErrorBody{
				Code: server.ErrBackendUnavailable, Message: fmt.Sprintf("list %s: %v", name, err)}}
		}
	}
	return nil
}

// collectBackendList pages through one backend's GET /v1/runs.
func (c *Coordinator) collectBackendList(ctx context.Context, name string, keep func(server.RunListEntry)) error {
	after := ""
	for {
		path := "/v1/runs?limit=" + strconv.Itoa(backendListPage)
		if after != "" {
			path += "&after=" + url.QueryEscape(after)
		}
		status, body, err := c.proxyGet(ctx, name, path)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		var page server.RunListResponse
		if err := json.Unmarshal(body, &page); err != nil {
			return err
		}
		for _, e := range page.Runs {
			keep(e)
		}
		if !page.Truncated || len(page.Runs) == 0 {
			return nil
		}
		after = page.Runs[len(page.Runs)-1].ID
	}
}

// backendListPage is the page size used when reconciling a backend's
// enumeration.
const backendListPage = 5000
