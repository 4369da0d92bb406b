package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzBatchRequest posts an arbitrary body to the batches endpoint of a
// fresh manual topology, then another to its advance endpoint. Every body must be answered
// 200, 400, 403 or 404 — never a panic or a 5xx — and the ledgers must
// still balance afterwards: a batch's offered packets are admitted,
// quota-dropped or rejected, and the engine accounts for every packet
// it was offered.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range [][2]string{
		{`{"tenant":"gold","random":9}`, `{"steps":7}`},
		{`{"tenant":"bulk","pairs":[{"src":0,"dst":60},{"src":3,"dst":1}],"random":2}`, `{"steps":40}`},
		{`{"tenant":"free","paths":[[0,32],[5],[-1]]}`, `{"steps":1}`},
		{`{"tenant":"bulk","random":1000000000}`, `{"steps":1000000000}`},
		{`{"tenant":"gold","random":1} x`, `{"steps":1}{"steps":99}`},
		{`[]`, `null`},
		{``, ``},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, batch, advance []byte) {
		cfg := manualCfg(t, "bfly")
		cfg.Tenants = append(cfg.Tenants, TenantQuota{Name: "bulk"})
		s, err := New([]TopologyConfig{cfg}, Options{Now: newFakeClock().now})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusForbidden, http.StatusNotFound:
			default:
				t.Fatalf("POST %s %q: status %d: %s", path, body, w.Code, w.Body)
			}
			return w
		}

		rejected := 0
		if w := post("/v1/topologies/bfly/batches", batch); w.Code == http.StatusOK {
			var res BatchResult
			if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			rejected = len(res.Rejected)
			if res.Offered != res.Admitted+res.QuotaDropped+rejected {
				t.Fatalf("batch %q does not balance: %+v", batch, res)
			}
		}
		post("/v1/topologies/bfly/advance", advance)

		st, err := s.Stats("bfly")
		if err != nil {
			t.Fatal(err)
		}
		var offered, quotaDropped int
		for _, ts := range st.Tenants {
			offered += ts.Offered
			quotaDropped += ts.QuotaDropped
		}
		if offered != quotaDropped+rejected+st.Offered {
			t.Fatalf("quota ledger: offered %d != quota_dropped %d + rejected %d + engine offered %d",
				offered, quotaDropped, rejected, st.Offered)
		}
		if st.Offered != st.Admitted+st.Dropped+st.QueueDepth || st.Admitted != st.Delivered+st.Live {
			t.Fatalf("engine ledger: %+v", st)
		}
	})
}
