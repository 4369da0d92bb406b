package service

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// padTo pads body with trailing spaces to n bytes.
func padTo(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }

// pairsOf builds a batch body of repeated pairs at least n bytes long,
// cut to exactly n bytes (so a body past the limit is also malformed).
func pairsOf(n int) string {
	var b strings.Builder
	b.WriteString(`{"tenant":"gold","pairs":[`)
	for b.Len() < n {
		b.WriteString(`{"src":0,"dst":60},`)
	}
	return b.String()[:n]
}

// TestEdgeCaseBodies pins the status and exact reply bytes for request
// bodies at the edges of what the batches and advance endpoints
// accept: escaped and non-ASCII strings, case-folded and duplicate
// keys, numbers that are not plain integers, explicit items, unknown
// fields, trailing data, empty bodies and the 8 MiB body limit. Each
// body is posted to a fresh manual topology, so every reply is a pure
// function of its body. The messages for malformed bodies are
// encoding/json's own, which stays the reference for every body the
// service does not decode by itself.
func TestEdgeCaseBodies(t *testing.T) {
	const (
		batches = "/v1/topologies/bfly/batches"
		advance = "/v1/topologies/bfly/advance"
	)
	cases := []struct {
		name, path, body string
		status           int
		reply            string
	}{
		{"escaped tenant", batches, `{"tenant":"g\u006fld","random":1}`, http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":1,"admitted":1,"quota_dropped":0,"step":0}`},
		{"escaped quote in tenant", batches, `{"tenant":"g\"old","random":1}`, http.StatusForbidden,
			`{"error":"service: unknown tenant: \"g\\\"old\" on topology \"bfly\""}`},
		{"non-ASCII tenant", batches, `{"tenant":"göld","random":1}`, http.StatusForbidden,
			`{"error":"service: unknown tenant: \"göld\" on topology \"bfly\""}`},
		{"HTML tenant", batches, `{"tenant":"<gold>&","random":1}`, http.StatusForbidden,
			`{"error":"service: unknown tenant: \"\u003cgold\u003e\u0026\" on topology \"bfly\""}`},
		{"control byte in tenant", batches, "{\"tenant\":\"go\tld\",\"random\":1}", http.StatusBadRequest,
			`{"error":"bad request body: invalid character '\\t' in string literal"}`},
		{"case-folded keys", batches, `{"Tenant":"gold","RANDOM":2}`, http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":2,"admitted":2,"quota_dropped":0,"step":0}`},
		{"duplicate keys", batches, `{"tenant":"free","random":1,"tenant":"gold","random":3}`, http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":3,"admitted":3,"quota_dropped":0,"step":0}`},
		{"whitespace", batches, " \r\n\t{ \"tenant\" : \"gold\" ,\n\"random\" : 4 } \n", http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":4,"admitted":4,"quota_dropped":0,"step":0}`},
		{"random -0", batches, `{"tenant":"gold","random":-0}`, http.StatusBadRequest,
			`{"error":"service: empty batch"}`},
		{"random -1", batches, `{"tenant":"gold","random":-1}`, http.StatusBadRequest,
			`{"error":"service: negative random count -1"}`},
		{"random 01", batches, `{"tenant":"gold","random":01}`, http.StatusBadRequest,
			`{"error":"bad request body: invalid character '1' after object key:value pair"}`},
		{"random 1e2", batches, `{"tenant":"gold","random":1e2}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal number 1e2 into Go struct field BatchRequest.random of type int"}`},
		{"random 1.0", batches, `{"tenant":"gold","random":1.0}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal number 1.0 into Go struct field BatchRequest.random of type int"}`},
		{"random null", batches, `{"tenant":"gold","random":null}`, http.StatusBadRequest,
			`{"error":"service: empty batch"}`},
		{"random string", batches, `{"tenant":"gold","random":"1"}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal string into Go struct field BatchRequest.random of type int"}`},
		{"random 20 digits", batches, `{"tenant":"gold","random":12345678901234567890}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal number 12345678901234567890 into Go struct field BatchRequest.random of type int"}`},
		{"random 19 digits", batches, `{"tenant":"gold","random":1234567890123456789}`, http.StatusBadRequest,
			`{"error":"service: batch of 1234567890123456789 random packets exceeds the limit of 466033"}`},
		{"tenant null", batches, `{"tenant":null,"random":1}`, http.StatusForbidden,
			`{"error":"service: unknown tenant: \"\" on topology \"bfly\""}`},
		{"no tenant", batches, `{"random":1}`, http.StatusForbidden,
			`{"error":"service: unknown tenant: \"\" on topology \"bfly\""}`},
		{"empty object", batches, `{}`, http.StatusBadRequest,
			`{"error":"service: empty batch"}`},
		{"pairs", batches, `{"tenant":"gold","pairs":[{"src":0,"dst":60},{"src":-1,"dst":3}]}`, http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":2,"admitted":1,"quota_dropped":0,"rejected":["dynamic: submit: node out of range"],"step":0}`},
		{"paths", batches, `{"tenant":"gold","paths":[[0],[99999],[]],"random":1}`, http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":4,"admitted":2,"quota_dropped":0,"rejected":["dynamic: submit: path edge 0 out of range","dynamic: submit: empty path"],"step":0}`},
		{"unknown field", batches, `{"tenant":"gold","random":1,"surprise":true}`, http.StatusBadRequest,
			`{"error":"bad request body: json: unknown field \"surprise\""}`},
		{"trailing data", batches, `{"tenant":"gold","random":1} x`, http.StatusBadRequest,
			`{"error":"bad request body: trailing data after the JSON value"}`},
		{"second value", batches, `{"tenant":"gold","random":1}{"tenant":"gold","random":9}`, http.StatusBadRequest,
			`{"error":"bad request body: trailing data after the JSON value"}`},
		{"array", batches, `[]`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal array into Go value of type service.BatchRequest"}`},
		{"null body", batches, `null`, http.StatusBadRequest,
			`{"error":"service: empty batch"}`},
		{"empty body", batches, ``, http.StatusBadRequest,
			`{"error":"bad request body: EOF"}`},
		{"syntax error first bytes", batches, `{tenant:"gold","random":1}`, http.StatusBadRequest,
			`{"error":"bad request body: invalid character 't' looking for beginning of object key string"}`},
		{"unterminated", batches, `{"tenant":"gold","random":1`, http.StatusBadRequest,
			`{"error":"bad request body: unexpected EOF"}`},
		{"8 MiB body", batches, padTo(`{"tenant":"gold","random":1}`, maxBodyBytes), http.StatusOK,
			`{"topology":"bfly","tenant":"gold","offered":1,"admitted":1,"quota_dropped":0,"step":0}`},
		{"8 MiB + 1 padded body", batches, padTo(`{"tenant":"gold","random":1}`, maxBodyBytes+1), http.StatusBadRequest,
			`{"error":"bad request body: trailing data after the JSON value"}`},
		{"8 MiB + 1 pairs body", batches, pairsOf(maxBodyBytes + 1), http.StatusBadRequest,
			`{"error":"bad request body: http: request body too large"}`},
		{"steps 1", advance, `{"steps":1}`, http.StatusOK,
			`{"step":1}`},
		{"case-folded steps", advance, `{"STEPS":2}`, http.StatusOK,
			`{"step":2}`},
		{"duplicate steps", advance, `{"steps":1,"steps":3}`, http.StatusOK,
			`{"step":3}`},
		{"steps -0", advance, `{"steps":-0}`, http.StatusBadRequest,
			`{"error":"service: advance needs 1..1048576 steps, got 0"}`},
		{"steps 01", advance, `{"steps":01}`, http.StatusBadRequest,
			`{"error":"bad request body: invalid character '1' after object key:value pair"}`},
		{"steps 1e2", advance, `{"steps":1e2}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal number 1e2 into Go struct field .steps of type int"}`},
		{"steps 1.0", advance, `{"steps":1.0}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal number 1.0 into Go struct field .steps of type int"}`},
		{"steps null", advance, `{"steps":null}`, http.StatusBadRequest,
			`{"error":"service: advance needs 1..1048576 steps, got 0"}`},
		{"steps string", advance, `{"steps":"1"}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal string into Go struct field .steps of type int"}`},
		{"steps 20 digits", advance, `{"steps":99999999999999999999}`, http.StatusBadRequest,
			`{"error":"bad request body: json: cannot unmarshal number 99999999999999999999 into Go struct field .steps of type int"}`},
		{"escaped steps key", advance, `{"st\u0065ps":1}`, http.StatusOK,
			`{"step":1}`},
		{"steps unknown field", advance, `{"steps":1,"tenant":"gold"}`, http.StatusBadRequest,
			`{"error":"bad request body: json: unknown field \"tenant\""}`},
		{"steps second value", advance, `{"steps":1}{"steps":99}`, http.StatusBadRequest,
			`{"error":"bad request body: trailing data after the JSON value"}`},
		{"steps trailing bracket", advance, `{"steps":1}]`, http.StatusBadRequest,
			`{"error":"bad request body: trailing data after the JSON value"}`},
		{"steps empty body", advance, ``, http.StatusBadRequest,
			`{"error":"bad request body: EOF"}`},
		{"steps syntax error first bytes", advance, `{steps:1}`, http.StatusBadRequest,
			`{"error":"bad request body: invalid character 's' looking for beginning of object key string"}`},
		{"steps 8 MiB + 1 padded body", advance, padTo(`{"steps":1}`, maxBodyBytes+1), http.StatusBadRequest,
			`{"error":"bad request body: trailing data after the JSON value"}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{Now: newFakeClock().now})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
			if rec.Code != c.status || rec.Body.String() != c.reply+"\n" {
				t.Errorf("status %d body %s\nwant   %d body %s", rec.Code, rec.Body, c.status, c.reply)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
			}
		})
	}
}
