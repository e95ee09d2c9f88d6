package server

import (
	"testing"
	"unicode/utf8"
)

// FuzzDecodeError feeds arbitrary bodies to the /v1 error-envelope decoder
// the coordinator relays backend 4xx answers through. DecodeError must never
// panic, and ok must imply a non-empty Code: the coordinator branches on it.
// An envelope EncodeError writes must decode to exactly the fields it was
// written from (ok exactly when its code is non-empty). JSON replaces
// invalid UTF-8 on encode, so the round trip is checked on valid strings.
// The seed corpus under testdata/fuzz runs on every plain `go test` (and
// through `make fuzz-seed`).
func FuzzDecodeError(f *testing.F) {
	for _, s := range []struct{ body, code, msg, runID string }{
		{`{"error":{"code":"bad_spec","message":"bad request body","run_id":"run-v2-00"}}`, "bad_spec", "bad request body", ""},
		{`{"error":{"code":"","message":"x"}}`, "queue_full", "admission queue full", "run-v2-0123456789abcdef0123456789abcdef"},
		{`{"error":null}`, "", "", ""},
		{`{"error":{"code":7}}`, "internal", `quote " and \ and <tag> & ` + "\u2028", ""},
		{`{"code":"bad_spec"}`, "not_found", "", "run-v2-x"},
		{`[]`, "x", "\x00\x1f", ""},
		{`{"error":{"code":"draining"`, "draining", "server draining", ""},
		{"\xff\xfe", "\xff", "\xc3(", "\xed\xa0\x80"},
	} {
		f.Add([]byte(s.body), s.code, s.msg, s.runID)
	}
	f.Fuzz(func(t *testing.T, body []byte, code, msg, runID string) {
		if eb, ok := DecodeError(body); ok && eb.Code == "" {
			t.Fatalf("DecodeError(%q) ok with an empty code: %+v", body, eb)
		}
		if !utf8.ValidString(code) || !utf8.ValidString(msg) || !utf8.ValidString(runID) {
			return
		}
		want := ErrorBody{Code: ErrorCode(code), Message: msg, RunID: runID}
		env := EncodeError(want.Code, msg, runID)
		got, ok := DecodeError(env)
		if ok != (code != "") {
			t.Fatalf("DecodeError(%s): ok %t for code %q", env, ok, code)
		}
		if ok && got != want {
			t.Fatalf("envelope round trip changed it:\n wrote %+v\n read  %+v", want, got)
		}
	})
}
