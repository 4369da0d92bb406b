package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/topo"
)

// BenchmarkServiceTick measures one manual-stepping service tick
// through the HTTP handler: a 120-packet random batch from an unlimited
// tenant, then a one-step advance, on a butterfly(7) kept near its
// stability knee by that load.
func BenchmarkServiceTick(b *testing.B) {
	g, err := topo.Butterfly(7)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New([]TopologyConfig{{
		Name: "bfly", Network: g,
		Engine:  dynamic.Config{Seed: 1, Retry: dynamic.RetryPolicy{MaxAttempts: 8}},
		Tenants: []TenantQuota{{Name: "gold"}},
	}}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	post := func(path, body string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("POST %s: status %d: %s", path, w.Code, w.Body)
		}
	}
	tick := func() {
		post("/v1/topologies/bfly/batches", `{"tenant":"gold","random":120}`)
		post("/v1/topologies/bfly/advance", `{"steps":1}`)
	}
	for i := 0; i < 200; i++ { // fill the network before timing
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}
