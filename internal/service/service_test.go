package service

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/persist"
	"hotpotato/internal/topo"
)

// fakeClock is a hand-advanced quota clock for deterministic bucket
// tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_000_000, 0)} }
func manualCfg(t *testing.T, name string) TopologyConfig {
	t.Helper()
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	return TopologyConfig{
		Name:    name,
		Network: g,
		Engine: dynamic.Config{
			Lambda: 0, Seed: 42, Window: 25,
			Retry: dynamic.RetryPolicy{MaxAttempts: 6, BaseDelay: 1, MaxDelay: 8},
		},
		AutoStep: false,
		Tenants: []TenantQuota{
			{Name: "gold", Rate: 1000, Burst: 1000},
			{Name: "free", Rate: 1, Burst: 4},
		},
	}
}

// drainManual advances a manual topology until the engine is idle.
func drainManual(t *testing.T, s *Service, name string) TopologyStats {
	t.Helper()
	for i := 0; i < 1000; i++ {
		st, err := s.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Live == 0 && st.QueueDepth == 0 {
			return st
		}
		if _, err := s.Advance(name, 10); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("topology never drained")
	return TopologyStats{}
}

// TestQuotaEnforcement is the acceptance criterion: a tenant offered
// far beyond its budget shows Dropped > 0 and a positive DropRate; a
// tenant within budget shows DropRate == 0. The clock is fake, so the
// free bucket never refills mid-test.
func TestQuotaEnforcement(t *testing.T) {
	clk := newFakeClock()
	s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.SubmitBatch("bfly", BatchRequest{Tenant: "gold", Random: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 20 || res.QuotaDropped != 0 {
		t.Fatalf("gold within budget: %+v", res)
	}
	res, err = s.SubmitBatch("bfly", BatchRequest{Tenant: "free", Random: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 4 || res.QuotaDropped != 16 {
		t.Fatalf("free 5x over budget: %+v", res)
	}

	st := drainManual(t, s, "bfly")
	gold, free := st.Tenants["gold"], st.Tenants["free"]
	if gold.DropRate != 0 || gold.Dropped != 0 {
		t.Errorf("gold dropped: %+v", gold)
	}
	if free.Dropped == 0 || free.DropRate <= 0 {
		t.Errorf("free not gated: %+v", free)
	}
	if free.Offered != 20 || free.QuotaDropped != 16 {
		t.Errorf("free ledger: %+v", free)
	}
	if gold.Delivered != 20 || free.Delivered != 4 {
		t.Errorf("deliveries: gold=%+v free=%+v", gold, free)
	}

	// Refill: after 2 simulated seconds the free bucket holds 2 tokens.
	clk.advance(2 * time.Second)
	res, err = s.SubmitBatch("bfly", BatchRequest{Tenant: "free", Random: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != 2 || res.QuotaDropped != 1 {
		t.Errorf("refill admitted %d dropped %d, want 2/1", res.Admitted, res.QuotaDropped)
	}

	// Unknown tenant and unknown topology are rejected, not defaulted.
	if _, err := s.SubmitBatch("bfly", BatchRequest{Tenant: "ghost", Random: 1}); err == nil {
		t.Error("unknown tenant accepted")
	}
	if _, err := s.SubmitBatch("nope", BatchRequest{Tenant: "gold", Random: 1}); err == nil {
		t.Error("unknown topology accepted")
	}
}

// TestServiceKillAndRestore is the tentpole contract end to end: a
// service snapshotted mid-run and restored "in a fresh process" (full
// JSON round trip) finishes with the same trace digest and totals as
// the same submission sequence run uninterrupted.
func TestServiceKillAndRestore(t *testing.T) {
	// The deterministic script: two batches, 30 steps, another batch,
	// then drain. run executes it with an optional kill after the
	// partial advance.
	script := func(s *Service) {
		t.Helper()
		mustBatch := func(req BatchRequest) {
			if _, err := s.SubmitBatch("bfly", req); err != nil {
				t.Fatal(err)
			}
		}
		mustBatch(BatchRequest{Tenant: "gold", Random: 15})
		mustBatch(BatchRequest{Tenant: "free", Random: 6}) // 2 quota-dropped
		if _, err := s.Advance("bfly", 30); err != nil {
			t.Fatal(err)
		}
	}
	finish := func(s *Service) TopologyStats {
		t.Helper()
		if _, err := s.SubmitBatch("bfly", BatchRequest{Tenant: "gold", Random: 10}); err != nil {
			t.Fatal(err)
		}
		return drainManual(t, s, "bfly")
	}
	cfg := func() TopologyConfig {
		c := manualCfg(t, "bfly")
		c.FaultSpec = "flap:period=30,down=5,rate=0.25"
		c.FaultSeed = 7
		return c
	}

	// Uninterrupted reference run.
	ref, err := New([]TopologyConfig{cfg()}, Options{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	script(ref)
	want := finish(ref)
	ref.Close()

	// Interrupted run: same script, then SIGTERM-style freeze.
	s, err := New([]TopologyConfig{cfg()}, Options{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	script(s)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s.Close() // the old process dies

	// Cross the process boundary through the real serializer.
	var buf strings.Builder
	if err := persist.WriteServiceSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	thawed, err := persist.ReadServiceSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(thawed, Options{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	got := finish(restored)
	if got.Digest != want.Digest {
		t.Errorf("restored digest %x != uninterrupted %x", got.Digest, want.Digest)
	}
	if got.Delivered != want.Delivered || got.Offered != want.Offered ||
		got.Dropped != want.Dropped || got.Deflections != want.Deflections ||
		got.FaultBlocked != want.FaultBlocked || got.Step != want.Step {
		t.Errorf("restored totals diverged:\n%+v\nvs\n%+v", got, want)
	}
	for name, w := range want.Tenants {
		if g := got.Tenants[name]; g != w {
			t.Errorf("tenant %s diverged: %+v vs %+v", name, g, w)
		}
	}
}

// TestSnapshotWhileAutoStepping: snapshots of a free-running topology
// land on a step boundary and restore cleanly — no torn state under the
// race detector.
func TestSnapshotWhileAutoStepping(t *testing.T) {
	cfg := manualCfg(t, "busy")
	cfg.AutoStep = true
	cfg.Engine.Lambda = 0.2 // endogenous load keeps the loop stepping
	s, err := New([]TopologyConfig{cfg}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SubmitBatch("busy", BatchRequest{Tenant: "gold", Random: 10}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Stats("busy")
		if err != nil {
			t.Fatal(err)
		}
		if st.Step > 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-step loop never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	restored.Close()
}

// TestVarsEncodable: the expvar view must always be JSON-encodable —
// the NaN regression applies to the service surface too, including the
// zero-traffic state where every ratio's denominator is 0.
func TestVarsEncodable(t *testing.T) {
	s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{Now: newFakeClock().now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check := func(stage string) {
		v := s.Vars().String() // expvar renders via json.Marshal
		if !json.Valid([]byte(v)) {
			t.Fatalf("%s: expvar output invalid JSON: %s", stage, v)
		}
		if strings.Contains(v, "NaN") || strings.Contains(v, "Inf") {
			t.Fatalf("%s: expvar output poisoned: %s", stage, v)
		}
	}
	check("zero traffic")
	if _, err := s.SubmitBatch("bfly", BatchRequest{Tenant: "free", Random: 10}); err != nil {
		t.Fatal(err)
	}
	drainManual(t, s, "bfly")
	check("after traffic")
}

// TestServiceConfigValidation: bad configurations fail at New, not
// mid-request.
func TestServiceConfigValidation(t *testing.T) {
	base := manualCfg(t, "ok")
	cases := map[string]func() []TopologyConfig{
		"no topologies": func() []TopologyConfig { return nil },
		"unnamed":       func() []TopologyConfig { c := base; c.Name = ""; return []TopologyConfig{c} },
		"duplicate":     func() []TopologyConfig { return []TopologyConfig{base, base} },
		"bounded steps": func() []TopologyConfig { c := base; c.Engine.Steps = 100; return []TopologyConfig{c} },
		"bad fault spec": func() []TopologyConfig {
			c := base
			c.FaultSpec = "warp:factor=9"
			return []TopologyConfig{c}
		},
		"unnamed tenant": func() []TopologyConfig {
			c := base
			c.Tenants = []TenantQuota{{Rate: 1, Burst: 1}}
			return []TopologyConfig{c}
		},
		"half quota": func() []TopologyConfig {
			c := base
			c.Tenants = []TenantQuota{{Name: "x", Rate: 1, Burst: 0}}
			return []TopologyConfig{c}
		},
		"dup tenant": func() []TopologyConfig {
			c := base
			c.Tenants = []TenantQuota{{Name: "x", Rate: 1, Burst: 1}, {Name: "x", Rate: 2, Burst: 2}}
			return []TopologyConfig{c}
		},
	}
	for name, mk := range cases {
		if s, err := New(mk(), Options{}); err == nil {
			s.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestServiceRefusesNetworkPastReachBudget: a topology whose engine
// would need a reach matrix past paths.MaxReachBytes is a configuration
// error naming the topology, the matrix size and the budget, not a
// panic. The levelized dense 132-node random DAG has 234,665 nodes.
func TestServiceRefusesNetworkPastReachBudget(t *testing.T) {
	g, _, err := topo.Levelize("dense-dag", 132, topo.RandomDAG(rand.New(rand.NewSource(3)), 132, 200.0/255))
	if err != nil {
		t.Fatal(err)
	}
	c := manualCfg(t, "dense")
	c.Network = g
	s, err := New([]TopologyConfig{manualCfg(t, "bfly"), c}, Options{})
	if err == nil {
		s.Close()
		t.Fatal("accepted")
	}
	for _, want := range []string{`topology "dense"`, "234665 nodes", "8606104210 bytes", "134217728-byte budget"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestStoppedTopology: operations against a closed service fail with
// ErrStopped instead of hanging.
func TestStoppedTopology(t *testing.T) {
	s, err := New([]TopologyConfig{manualCfg(t, "bfly")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := s.Stats("bfly")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("stats on stopped topology succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stats on stopped topology hung")
	}
}
