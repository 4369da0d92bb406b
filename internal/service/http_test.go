package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hotpotato/internal/dynamic"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPAPI(t *testing.T) {
	s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Submit a mixed batch over the wire.
	resp := postJSON(t, srv.URL+"/v1/topologies/bfly/batches", BatchRequest{
		Tenant: "gold",
		Pairs:  []Pair{{Src: 0, Dst: 60}},
		Random: 9,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	br := decodeBody[BatchResult](t, resp)
	if br.Offered != 10 || br.Admitted+len(br.Rejected) != 10 {
		t.Fatalf("batch result: %+v", br)
	}

	// Drive the manual engine over the wire until the batch drains.
	for i := 0; i < 100; i++ {
		resp = postJSON(t, srv.URL+"/v1/topologies/bfly/advance", map[string]int{"steps": 10})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance status %d", resp.StatusCode)
		}
		resp.Body.Close()
		get, err := http.Get(srv.URL + "/v1/topologies/bfly")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[TopologyStats](t, get)
		if st.Live == 0 && st.QueueDepth == 0 {
			if st.Delivered != br.Admitted {
				t.Fatalf("delivered %d != admitted %d", st.Delivered, br.Admitted)
			}
			break
		}
		if i == 99 {
			t.Fatal("batch never drained over HTTP")
		}
	}

	// Window flush endpoint.
	resp = postJSON(t, srv.URL+"/v1/topologies/bfly/windows", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	resp.Body.Close()
	get, err := http.Get(srv.URL + "/v1/topologies/bfly")
	if err != nil {
		t.Fatal(err)
	}
	if st := decodeBody[TopologyStats](t, get); st.LastWindow == nil {
		t.Error("no window after explicit flush")
	}

	// Topology listing.
	get, err = http.Get(srv.URL + "/v1/topologies")
	if err != nil {
		t.Fatal(err)
	}
	if all := decodeBody[[]TopologyStats](t, get); len(all) != 1 || all[0].Name != "bfly" {
		t.Errorf("listing: %+v", all)
	}

	// Error mapping: 404 unknown topology, 403 unknown tenant, 400 bad
	// JSON (trailing data included) and bad advance; trailing whitespace
	// is fine.
	errCases := []struct {
		url  string
		body string
		want int
	}{
		{"/v1/topologies/ghost/batches", `{"tenant":"gold","random":1}`, http.StatusNotFound},
		{"/v1/topologies/bfly/batches", `{"tenant":"ghost","random":1}`, http.StatusForbidden},
		{"/v1/topologies/bfly/batches", `{not json`, http.StatusBadRequest},
		{"/v1/topologies/bfly/batches", `{"tenant":"gold"}`, http.StatusBadRequest},
		{"/v1/topologies/bfly/batches", `{"tenant":"gold","surprise":1}`, http.StatusBadRequest},
		{"/v1/topologies/bfly/batches", `{"tenant":"gold","random":1}{"tenant":"gold","random":9}`, http.StatusBadRequest},
		{"/v1/topologies/bfly/batches", `{"tenant":"gold","random":1} x`, http.StatusBadRequest},
		{"/v1/topologies/bfly/advance", `{"steps":0}`, http.StatusBadRequest},
		{"/v1/topologies/bfly/advance", `{"steps":1}{"steps":99}`, http.StatusBadRequest},
		{"/v1/topologies/bfly/advance", `{"steps":1}]`, http.StatusBadRequest},
		{"/v1/topologies/bfly/advance", "{\"steps\":1}\n\t ", http.StatusOK},
		{"/v1/topologies/ghost/advance", `{"steps":5}`, http.StatusNotFound},
	}
	get, err = http.Get(srv.URL + "/v1/topologies/bfly")
	if err != nil {
		t.Fatal(err)
	}
	before := decodeBody[TopologyStats](t, get)
	stepBefore, offeredBefore := before.Step, before.Offered
	for _, c := range errCases {
		resp, err := http.Post(srv.URL+c.url, "application/json", bytes.NewReader([]byte(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("POST %s %s: status %d, want %d", c.url, c.body, resp.StatusCode, c.want)
		}
		resp.Body.Close()
	}

	// The rejected trailing-data requests changed nothing: only the
	// whitespace-trailed advance stepped.
	get, err = http.Get(srv.URL + "/v1/topologies/bfly")
	if err != nil {
		t.Fatal(err)
	}
	if after := decodeBody[TopologyStats](t, get); after.Step != stepBefore+1 || after.Offered != offeredBefore {
		t.Errorf("error cases moved the engine: step %d→%d, offered %d→%d", stepBefore, after.Step, offeredBefore, after.Offered)
	}

	// Unknown topology stats → 404.
	get, err = http.Get(srv.URL + "/v1/topologies/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if get.StatusCode != http.StatusNotFound {
		t.Errorf("ghost stats status %d", get.StatusCode)
	}
	get.Body.Close()
}

// TestBatchSizeLimit: a batch over MaxBatchPackets is refused with 400
// before it reaches the quota bucket or the engine, even for an
// unlimited tenant whose random batch costs a few bytes.
func TestBatchSizeLimit(t *testing.T) {
	cfg := manualCfg(t, "bfly")
	cfg.Tenants = append(cfg.Tenants, TenantQuota{Name: "bulk"})
	s, err := New([]TopologyConfig{cfg}, Options{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp := postJSON(t, srv.URL+"/v1/topologies/bfly/batches", BatchRequest{Tenant: "bulk", Random: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small batch status %d", resp.StatusCode)
	}
	resp.Body.Close()
	before, err := s.Stats("bfly")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"tenant":"bulk","random":1000000000}`,
		`{"tenant":"bulk","random":9223372036854775807}`,
		fmt.Sprintf(`{"tenant":"bulk","random":%d}`, MaxBatchPackets+1),
		fmt.Sprintf(`{"tenant":"bulk","pairs":[{"src":0,"dst":60}],"random":%d}`, MaxBatchPackets),
	} {
		resp, err := http.Post(srv.URL+"/v1/topologies/bfly/batches", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.60s: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	after, err := s.Stats("bfly")
	if err != nil {
		t.Fatal(err)
	}
	if after.QueueDepth != before.QueueDepth || after.Offered != before.Offered ||
		after.Tenants["bulk"] != before.Tenants["bulk"] {
		t.Errorf("oversized batches reached the topology: %+v -> %+v", before, after)
	}
	if before.QueueDepth != 5 {
		t.Errorf("queue depth %d, want the small batch's 5", before.QueueDepth)
	}

	resp = postJSON(t, srv.URL+"/v1/topologies/bfly/advance", map[string]int{"steps": MaxAdvanceSteps + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("advance past MaxAdvanceSteps: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// indentedCompact is the reply the service sent before replies went
// compact — v through an indenting json.Encoder — with its whitespace
// stripped and one newline appended: the bytes a reply must now be.
func indentedCompact(t *testing.T, v any) []byte {
	t.Helper()
	var indented, out bytes.Buffer
	enc := json.NewEncoder(&indented)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&out, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	out.WriteByte('\n')
	return out.Bytes()
}

// checkReply asserts that rec answered status with want: a JSON
// content type and length, exactly indentedCompact(want) as the body,
// and a body that decodes strictly back into want.
func checkReply[T any](t *testing.T, label string, rec *httptest.ResponseRecorder, status int, want T) {
	t.Helper()
	body := rec.Body.Bytes()
	if rec.Code != status {
		t.Errorf("%s: status %d, want %d: %s", label, rec.Code, status, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", label, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", label, cl, len(body))
	}
	if wantBody := indentedCompact(t, want); !bytes.Equal(body, wantBody) {
		t.Errorf("%s: body\n%s\nwant\n%s", label, body, wantBody)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var got T
	if err := dec.Decode(&got); err != nil {
		t.Errorf("%s: strict decode: %v", label, err)
	} else if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: decoded %+v, want %+v", label, got, want)
	}
}

// TestResponseBodies pins every endpoint's reply bytes. One service is
// driven over HTTP and a twin with the same config through the Go API,
// so each expected reply is the value the Go API returns for the same
// call.
func TestResponseBodies(t *testing.T) {
	newSvc := func() *Service {
		s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{Now: newFakeClock().now})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, twin := newSvc(), newSvc()
	defer s.Close()
	defer twin.Close()
	h := s.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	errReply := func(err error) errorReply {
		t.Helper()
		if err == nil {
			t.Fatal("twin call succeeded")
		}
		return errorReply{Error: err.Error()}
	}

	req := BatchRequest{Tenant: "gold", Pairs: []Pair{{Src: 0, Dst: 60}, {Src: -1, Dst: 3}}, Random: 9}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, err := twin.SubmitBatch("bfly", req)
	if err != nil || len(wantBatch.Rejected) == 0 {
		t.Fatalf("twin batch %+v, %v: want a rejected item", wantBatch, err)
	}
	checkReply(t, "POST batches", serve(http.MethodPost, "/v1/topologies/bfly/batches", string(data)), http.StatusOK, wantBatch)

	step, err := twin.Advance("bfly", 30)
	if err != nil {
		t.Fatal(err)
	}
	checkReply(t, "POST advance", serve(http.MethodPost, "/v1/topologies/bfly/advance", `{"steps":30}`), http.StatusOK, advanceReply{Step: step})
	checkReply(t, "POST windows", serve(http.MethodPost, "/v1/topologies/bfly/windows", `{}`), http.StatusOK, flushReply{Flushed: true})

	st, err := s.Stats("bfly")
	if err != nil || st.LastWindow == nil || st.Delivered == 0 {
		t.Fatalf("stats %+v, %v: want deliveries and a flushed window", st, err)
	}
	checkReply(t, "GET stats", serve(http.MethodGet, "/v1/topologies/bfly", ""), http.StatusOK, st)
	checkReply(t, "GET list", serve(http.MethodGet, "/v1/topologies", ""), http.StatusOK, s.AllStats())

	_, err = twin.Advance("bfly", 0)
	checkReply(t, "400 advance", serve(http.MethodPost, "/v1/topologies/bfly/advance", `{"steps":0}`), http.StatusBadRequest, errReply(err))
	const unknownField = `{"tenant":"gold","surprise":1}`
	dec := json.NewDecoder(strings.NewReader(unknownField))
	dec.DisallowUnknownFields()
	err = dec.Decode(&BatchRequest{})
	checkReply(t, "400 body", serve(http.MethodPost, "/v1/topologies/bfly/batches", unknownField), http.StatusBadRequest,
		errorReply{Error: "bad request body: " + errReply(err).Error})
	_, err = twin.SubmitBatch("bfly", BatchRequest{Tenant: "ghost", Random: 1})
	checkReply(t, "403", serve(http.MethodPost, "/v1/topologies/bfly/batches", `{"tenant":"ghost","random":1}`), http.StatusForbidden, errReply(err))

	// The 404 names a topology with HTML metacharacters: escaping stays
	// as encoding/json's default.
	_, err = twin.SubmitBatch("<ghost>&", BatchRequest{Tenant: "gold", Random: 1})
	rec := serve(http.MethodPost, "/v1/topologies/%3Cghost%3E&/batches", `{"tenant":"gold","random":1}`)
	checkReply(t, "404", rec, http.StatusNotFound, errReply(err))
	if !strings.Contains(rec.Body.String(), `\u003cghost\u003e\u0026`) {
		t.Errorf("404 body not HTML-escaped: %s", rec.Body)
	}

	s.Close()
	_, err = s.Stats("bfly")
	checkReply(t, "503", serve(http.MethodGet, "/v1/topologies/bfly", ""), http.StatusServiceUnavailable, errReply(err))
}

// TestWriteJSONEncodeFailure: a reply that cannot be encoded answers
// 500 with a JSON error body, never a 200 with an empty or cut-off one.
func TestWriteJSONEncodeFailure(t *testing.T) {
	for _, v := range []any{math.NaN(), TopologyStats{LastWindow: &dynamic.WindowStats{MeanLatency: math.Inf(1)}}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("%T: status %d, want 500: %q", v, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%T: Content-Type %q", v, ct)
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		var e errorReply
		if err := dec.Decode(&e); err != nil || !strings.Contains(e.Error, "unsupported value") {
			t.Errorf("%T: error body %+v, %v", v, e, err)
		}
	}
}
