package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// strictBatch and strictAdvance decode body the reference way.
func strictBatch(body []byte) (BatchRequest, error) {
	var v BatchRequest
	err := decodeStrict(bytes.NewReader(body), &v)
	return v, err
}

func strictAdvance(body []byte) (advanceRequest, error) {
	var v advanceRequest
	err := decodeStrict(bytes.NewReader(body), &v)
	return v, err
}

// marshalLine is json.Marshal(v) and a newline: the reply bytes the
// append encoders must produce.
func marshalLine(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// FuzzServiceCodec checks both halves of the service codec against
// encoding/json. Whenever a scanner accepts a body, the strict decoder
// accepts it too, with the same value. A BatchResult built from the
// other arguments (rejected holds NUL-terminated items) and an
// advanceReply encode to json.Marshal's bytes and a newline, whether
// their strings are plain or not.
func FuzzServiceCodec(f *testing.F) {
	for _, seed := range []struct {
		body                      string
		topology, tenant          string
		offered, admitted, qd, st int
		rejected                  string
	}{
		{`{"tenant":"gold","random":120}`, "bfly", "gold", 120, 118, 2, 77, ""},
		{` {"steps" : 1 }` + "\n", "bfly", "a&b", 3, 1, 0, -1, "dynamic: submit: node out of range\x00x>\x00"},
		{`{"tenant":"g\u006fld","random":-0,"random":01}`, "göld", "\u2028", 0, 0, 0, 0, "\"quoted\\\x00"},
		{`{"Tenant":"gold","RANDOM":1e2,"steps":null}`, "bfly", "\xff", math.MaxInt, math.MinInt, 1, 1, "\x00\x00"},
		{`{"steps":999999999999999999,"steps":-999999999999999999}`, "", "", 0, 0, 0, 0, "\t\x00"},
		{`{"steps":1}{"steps":99}`, "bfly", "gold", 1, 1, 0, 1, "<script>\x00"},
	} {
		f.Add([]byte(seed.body), seed.topology, seed.tenant, seed.offered, seed.admitted, seed.qd, seed.st, seed.rejected)
	}
	f.Fuzz(func(t *testing.T, body []byte, topology, tenant string, offered, admitted, quotaDropped, step int, rejected string) {
		var batch BatchRequest
		if scanBatch(body, &batch) {
			want, err := strictBatch(body)
			if err != nil || !reflect.DeepEqual(batch, want) {
				t.Fatalf("scanBatch(%q) = %+v, strict decoder %+v, %v", body, batch, want, err)
			}
		}
		var adv advanceRequest
		if scanAdvance(body, &adv) {
			want, err := strictAdvance(body)
			if err != nil || adv != want {
				t.Fatalf("scanAdvance(%q) = %+v, strict decoder %+v, %v", body, adv, want, err)
			}
		}

		items := strings.Split(rejected, "\x00")
		res := BatchResult{
			Topology: topology, Tenant: tenant,
			Offered: offered, Admitted: admitted, QuotaDropped: quotaDropped,
			Rejected: items[:len(items)-1],
			Step:     step,
		}
		if got, want := res.appendJSON(nil), marshalLine(t, res); !bytes.Equal(got, want) {
			t.Fatalf("BatchResult %+v:\n got %s\nwant %s", res, got, want)
		}
		if got, want := (advanceReply{Step: step}).appendJSON(nil), marshalLine(t, advanceReply{Step: step}); !bytes.Equal(got, want) {
			t.Fatalf("advanceReply{%d}:\n got %s\nwant %s", step, got, want)
		}
	})
}

// TestReplyEncoders: every append encoder matches json.Marshal and
// appends to what the buffer already holds. Each string that
// encoding/json escapes or rewrites is tried alone in each string
// field of a BatchResult, and a nil and an empty rejected list must
// both be left out.
func TestReplyEncoders(t *testing.T) {
	check := func(v interface{ appendJSON([]byte) []byte }) {
		t.Helper()
		if got, want := v.appendJSON([]byte("x")), append([]byte("x"), marshalLine(t, v)...); !bytes.Equal(got, want) {
			t.Errorf("%+v: got %s, want %s", v, got, want)
		}
	}
	for _, s := range []string{"", "gold", "<", ">", "&", `"`, `\`, "\t", "\x7f", "é", "\u2028", "\xff"} {
		check(&BatchResult{Topology: s, Tenant: "gold"})
		check(&BatchResult{Topology: "bfly", Tenant: s, Offered: 1})
		check(&BatchResult{Topology: "bfly", Tenant: "gold", Rejected: []string{"a", s}})
	}
	check(&BatchResult{Topology: "bfly", Tenant: "gold", Rejected: []string{}})
	check(advanceReply{Step: -1})
	check(flushReply{Flushed: true})
	check(flushReply{})
}

// TestDecodeRequestMatchesStrict drives decodeRequest with bodies that
// end exactly at, just before and just past the pooled buffer, and with
// bodies cut off by a read error before or after a complete value. Each
// outcome must be the strict decoder's over the same byte stream.
func TestDecodeRequestMatchesStrict(t *testing.T) {
	const value = `{"tenant":"gold","random":1}`
	boom := errors.New("connection reset")
	cases := []struct {
		name string
		body func() io.Reader
	}{
		{"buffer - 1", func() io.Reader { return strings.NewReader(padTo(value, bodyBufBytes-1)) }},
		{"buffer", func() io.Reader { return strings.NewReader(padTo(value, bodyBufBytes)) }},
		{"buffer + 1", func() io.Reader { return strings.NewReader(padTo(value, bodyBufBytes+1)) }},
		{"buffer + 1 trailing", func() io.Reader { return strings.NewReader(padTo(value, bodyBufBytes) + "x") }},
		{"long pairs", func() io.Reader {
			return strings.NewReader(`{"tenant":"gold","pairs":[` + strings.Repeat(`{"src":0,"dst":60},`, 500) + `{"src":1,"dst":2}]}`)
		}},
		{"error after value", func() io.Reader {
			return io.MultiReader(strings.NewReader(value), iotest.ErrReader(boom))
		}},
		{"error inside value", func() io.Reader {
			return io.MultiReader(strings.NewReader(value[:12]), iotest.ErrReader(boom))
		}},
		{"one byte at a time", func() io.Reader { return iotest.OneByteReader(strings.NewReader(value)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var want BatchRequest
			wantErr := decodeStrict(c.body(), &want)

			rec := httptest.NewRecorder()
			var got BatchRequest
			err := decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/", c.body()), &got, scanBatch)
			if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) ||
				err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("decodeRequest = %+v, %v; strict decoder %+v, %v", got, err, want, wantErr)
			}
			if err != nil && rec.Code != http.StatusBadRequest {
				t.Errorf("status %d on a decode error", rec.Code)
			}
		})
	}
}

// TestHotEndpointAllocs bounds the allocations of a warm POST batches
// and POST advance served by the handler (newTickHarness), so that a slide back to
// reflection in the request decode or reply encode fails here. Under
// the race detector sync.Pool drops buffers at random, so the counts
// there are not the handler's.
func TestHotEndpointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	serve, batch, advance := newTickHarness(t)
	for _, c := range []struct {
		name string
		call *benchCall
		max  float64
	}{
		{"POST batches", batch, 6},
		{"POST advance", advance, 4},
	} {
		if n := testing.AllocsPerRun(100, func() { serve(c.call) }); n > c.max {
			t.Errorf("%s: %v allocs per call, want <= %v", c.name, n, c.max)
		}
	}
}
