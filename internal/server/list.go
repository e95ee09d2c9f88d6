package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"hpe/internal/runspec"
)

// GET /v1/runs — run enumeration. Lists every cached and in-flight
// computation ID with a short spec summary, in canonical (lexicographic) ID
// order, paginated with limit/after. On the cluster coordinator the compute
// seam merges in every live backend's listing over this same endpoint
// instead of a side channel: the union of the backends' listings is the
// cluster's run inventory.

// RunListEntry is one enumerated computation.
type RunListEntry struct {
	// ID is the content address (run-v2-… or suite-…).
	ID string `json:"id"`
	// Status is "cached" or "running".
	Status string `json:"status"`
	// Kind is "run" or "suite".
	Kind string `json:"kind"`
	// Summary is a one-line human sketch of the request ("HSD hpe @75%");
	// empty when the lister never saw the request (e.g. a coordinator
	// caching a body it fetched by ID, before any backend lists it).
	Summary string `json:"summary,omitempty"`
}

// RunListResponse is the GET /v1/runs body.
type RunListResponse struct {
	Runs []RunListEntry `json:"runs"`
	// Truncated reports that more entries exist past the last one returned;
	// pass after=<last id> to continue.
	Truncated bool `json:"truncated,omitempty"`
}

// listLimits bounds the page size.
const (
	defaultListLimit = 500
	maxListLimit     = 5000
)

// trackFlight indexes a leader computation's summary for the listing while
// it runs; untrackFlight drops it when the flight ends. Cached IDs carry
// their summary in the result cache, so the index never holds more than the
// in-flight computations.
func (s *Server) trackFlight(id, summary string) {
	s.flightMu.Lock()
	s.flights[id] = summary
	s.flightMu.Unlock()
}

func (s *Server) untrackFlight(id string) {
	s.flightMu.Lock()
	delete(s.flights, id)
	s.flightMu.Unlock()
}

// specSummary renders a run spec's one-line enumeration sketch.
func specSummary(sp runspec.Spec) string {
	src := sp.App
	switch {
	case sp.Phases != "":
		src = "phases:" + sp.Phases
	case sp.Tenants != "":
		src = "tenants:" + sp.Tenants
	}
	out := fmt.Sprintf("%s %s @%d%%", src, sp.Policy, sp.Rate)
	if v := sp.VariantLabel(); v != "" {
		out += " [" + v + "]"
	}
	return out
}

// ParseListQuery extracts the limit/after pagination parameters.
func ParseListQuery(r *http.Request) (limit int, after string, err error) {
	limit = defaultListLimit
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err = strconv.Atoi(raw)
		if err != nil || limit < 1 {
			return 0, "", fmt.Errorf("limit must be a positive integer, got %q", raw)
		}
		if limit > maxListLimit {
			limit = maxListLimit
		}
	}
	return limit, r.URL.Query().Get("after"), nil
}

// listRuns enumerates the cached and in-flight computations — the front's
// own and whatever the compute seam adds — in canonical ID order, applying
// limit/after pagination.
func (s *Server) listRuns(ctx context.Context, limit int, after string) (RunListResponse, *Error) {
	entries := make(map[string]RunListEntry)
	keep := func(e RunListEntry) {
		prev, ok := entries[e.ID]
		if !ok {
			entries[e.ID] = e
			return
		}
		// A cached entry wins over a running one (the bytes are final), and
		// any summary beats an empty one.
		if e.Status == "cached" {
			prev.Status = "cached"
		}
		if prev.Summary == "" {
			prev.Summary = e.Summary
		}
		entries[e.ID] = prev
	}
	for _, e := range s.cache.Listing() {
		keep(RunListEntry{ID: e.ID, Status: "cached", Kind: kindOfID(e.ID), Summary: e.Summary})
	}
	inflight := s.co.InflightIDs()
	summaries := make([]string, len(inflight))
	s.flightMu.Lock()
	for i, id := range inflight {
		summaries[i] = s.flights[id]
	}
	s.flightMu.Unlock()
	for i, id := range inflight {
		keep(RunListEntry{ID: id, Status: "running", Kind: kindOfID(id), Summary: summaries[i]})
	}
	if err := s.comp.List(ctx, keep); err != nil {
		return RunListResponse{}, err
	}

	ids := make([]string, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var out RunListResponse
	for _, id := range ids {
		if after != "" && id <= after {
			continue
		}
		if len(out.Runs) == limit {
			out.Truncated = true
			break
		}
		out.Runs = append(out.Runs, entries[id])
	}
	return out, nil
}

// kindOfID classifies an ID by its content-address prefix.
func kindOfID(id string) string {
	if len(id) >= 6 && id[:6] == "suite-" {
		return "suite"
	}
	return "run"
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	const route = "run_list"
	limit, after, err := ParseListQuery(r)
	if err != nil {
		s.writeError(w, route, http.StatusBadRequest, ErrBadSpec, err.Error(), "")
		return
	}
	list, failed := s.listRuns(r.Context(), limit, after)
	if failed != nil {
		s.writeTyped(w, route, failed)
		return
	}
	body, err := json.Marshal(list)
	if err != nil {
		s.writeError(w, route, http.StatusInternalServerError, ErrInternal, err.Error(), "")
		return
	}
	s.writeBody(w, route, http.StatusOK, "", append(body, '\n'))
}
