package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/topo"
)

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// benchCall is one POST served over and over: the request and its body
// reader are built once and rewound per call.
type benchCall struct {
	req  *http.Request
	body *bytes.Reader
	data []byte
}

func newBenchCall(path, body string) *benchCall {
	c := &benchCall{body: bytes.NewReader(nil), data: []byte(body)}
	c.req = httptest.NewRequest(http.MethodPost, path, nil)
	c.req.Body = io.NopCloser(c.body)
	c.req.ContentLength = int64(len(c.data))
	return c
}

// newTickHarness serves BenchmarkServiceTick's two calls on a
// butterfly(7) kept near its stability knee: a 120-packet random batch
// from an unlimited tenant, and a one-step advance. The network is
// filled by 200 ticks before it returns. Every call reuses one request
// and one in-memory ResponseWriter, and a reply other than 200 fails
// tb.
func newTickHarness(tb testing.TB) (serve func(*benchCall), batch, advance *benchCall) {
	g, err := topo.Butterfly(7)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := New([]TopologyConfig{{
		Name: "bfly", Network: g,
		Engine:  dynamic.Config{Seed: 1, Retry: dynamic.RetryPolicy{MaxAttempts: 8}},
		Tenants: []TenantQuota{{Name: "gold"}},
	}}, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	h := s.Handler()
	w := &respWriter{header: make(http.Header)}
	serve = func(c *benchCall) {
		c.body.Reset(c.data)
		clear(w.header)
		w.code = 0
		w.body.Reset()
		h.ServeHTTP(w, c.req)
		if w.code != http.StatusOK {
			tb.Fatalf("POST %s: status %d: %s", c.req.URL.Path, w.code, w.body.Bytes())
		}
	}
	batch = newBenchCall("/v1/topologies/bfly/batches", `{"tenant":"gold","random":120}`)
	advance = newBenchCall("/v1/topologies/bfly/advance", `{"steps":1}`)
	for i := 0; i < 200; i++ {
		serve(batch)
		serve(advance)
	}
	return serve, batch, advance
}

// BenchmarkServiceTick measures manual-stepping service ticks through
// the HTTP handler (newTickHarness): "tick" times a batch and an
// advance, "batch" and "advance" time one call each (the other runs
// with the timer stopped, so the trajectory is the same). The figures
// are the handler's own — routing, request decode, the service call
// and the reply encode.
func BenchmarkServiceTick(b *testing.B) {
	for _, bc := range []struct {
		name           string
		batch, advance bool // which calls are timed
	}{
		{"tick", true, true},
		{"batch", true, false},
		{"advance", false, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			serve, batch, advance := newTickHarness(b)
			b.ReportAllocs()
			b.ResetTimer()
			timed := func(on bool) { // no-op when the timer is already so
				if on {
					b.StartTimer()
				} else {
					b.StopTimer()
				}
			}
			for i := 0; i < b.N; i++ {
				timed(bc.batch)
				serve(batch)
				timed(bc.advance)
				serve(advance)
			}
		})
	}
}
