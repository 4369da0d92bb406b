package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/persist"
	"hotpotato/internal/topo"
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

// FuzzReadServiceSnapshot feeds arbitrary bytes through the restore
// path: ReadServiceSnapshot, Restore, Advance and Snapshot must never
// panic. The first restore may change bytes (defaults fill in: a zero
// max_inflight comes back as 4096), but what it snapshots is a fixed
// point — restoring that and snapshotting again must reproduce it byte
// for byte. Auto-step topologies step on their own between restore and
// snapshot, so only the panic check applies to them.
func FuzzReadServiceSnapshot(f *testing.F) {
	g, err := topo.Butterfly(3)
	if err != nil {
		f.Fatal(err)
	}
	s, err := New([]TopologyConfig{{
		Name:    "b3",
		Network: g,
		Engine: dynamic.Config{
			Seed: 7, Window: 10,
			Retry: dynamic.RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 4},
		},
		Tenants: []TenantQuota{{Name: "gold", Rate: 100, Burst: 100}},
	}}, Options{Now: newFakeClock().now})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.SubmitBatch("b3", BatchRequest{Tenant: "gold", Random: 12}); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Advance("b3", 3); err != nil {
		f.Fatal(err)
	}
	seed, err := snapshotBytes(s)
	s.Close()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := persist.ReadServiceSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		s1, err := Restore(snap, Options{Now: newFakeClock().now})
		if err != nil {
			return
		}
		defer s1.Close()
		auto := false
		for _, ts := range snap.Topologies {
			auto = auto || ts.AutoStep
		}
		for _, name := range s1.Names() {
			// A step error stops the topology; Snapshot reports it.
			_, _ = s1.Advance(name, 3)
		}
		first, err := snapshotBytes(s1)
		if err != nil || auto {
			return
		}
		snap2, err := persist.ReadServiceSnapshot(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("service wrote a snapshot it cannot read: %v", err)
		}
		s2, err := Restore(snap2, Options{Now: newFakeClock().now})
		if err != nil {
			t.Fatalf("service cannot restore its own snapshot: %v", err)
		}
		defer s2.Close()
		second, err := snapshotBytes(s2)
		if err != nil {
			t.Fatalf("restored service cannot snapshot: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("restore->snapshot is not a fixed point:\nfirst  %s\nsecond %s", first, second)
		}
	})
}

// snapshotBytes serializes s's snapshot in the wire form.
func snapshotBytes(s *Service) ([]byte, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = persist.WriteServiceSnapshot(&buf, snap)
	return buf.Bytes(), err
}

// FuzzParseTenants feeds arbitrary strings to ParseTenants. No input
// may panic, and an accepted table has unique non-empty names and a
// finite, non-negative rate and burst for every tenant.
func FuzzParseTenants(f *testing.F) {
	for _, s := range []string{
		"gold:rate=200,burst=400;free:rate=20,burst=40;anon",
		"anon",
		"a;a",
		"x:rate=nan,burst=1",
		"x:rate=1e400,burst=1",
		";;",
		"x:rate=1",
		":rate=1,burst=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		qs, err := ParseTenants(spec)
		if err != nil {
			return
		}
		if len(qs) == 0 {
			t.Fatalf("ParseTenants(%q) accepted no tenants", spec)
		}
		seen := make(map[string]bool)
		for _, q := range qs {
			if q.Name == "" || seen[q.Name] {
				t.Fatalf("ParseTenants(%q): empty or duplicate name %q", spec, q.Name)
			}
			seen[q.Name] = true
			for _, x := range []float64{q.Rate, q.Burst} {
				if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("ParseTenants(%q): tenant %q rate=%g burst=%g", spec, q.Name, q.Rate, q.Burst)
				}
			}
		}
	})
}
