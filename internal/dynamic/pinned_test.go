package dynamic

import (
	"encoding/json"
	"hash/fnv"
	"math/rand"
	"testing"

	"hotpotato/internal/faults"
	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// TestDynamicDigestPinned pins the service engine's whole trajectory on
// a load that keeps the deflection pass busy: butterfly(7) fed
// service-style SubmitRandom batches near the stability knee (about 120
// packets a step), admission retry on, with and without a flap fault
// spec. The deflection pass may visit occupied nodes in any order — a
// node only claims its own outgoing slots — and these pins check that
// no grant, deflection, stall, RNG draw or snapshot byte depends on it.
// The final Digest and an FNV-1a hash of the Snapshot JSON were
// recorded when the pass still visited nodes in ID order.
func TestDynamicDigestPinned(t *testing.T) {
	cases := []struct {
		name         string
		spec         string
		digest, snap uint64
	}{
		{"plain", "", 0x31545974d36e0da5, 0x891d99634d04d8ba},
		{"flap", "flap:period=30,down=5,rate=0.25", 0xd8359391eb993c1c, 0xb96f4cd67f9235e4},
	}
	g, err := topo.Butterfly(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		cfg := Config{Seed: 23, Window: 50, Retry: RetryPolicy{MaxAttempts: 8, BaseDelay: 1, MaxDelay: 16}}
		if c.spec != "" {
			camp, err := faults.Parse(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Faults = camp.Model(g, 5)
		}
		e, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		load := rand.New(rand.NewSource(3))
		for step := 0; step < 300; step++ {
			for _, tenant := range []string{"gold", "free"} {
				if err := e.SubmitRandom(tenant, 30+load.Intn(61)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		r := e.Peek()
		if r.Deflections == 0 || r.Retried == 0 || r.Delivered == 0 {
			t.Fatalf("%s: load too light to exercise the deflection pass: %+v", c.name, r)
		}
		if c.spec != "" && r.FaultStalls == 0 {
			t.Fatalf("%s: no fault stalls", c.name)
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := e.Digest(); got != c.digest {
			t.Errorf("%s: digest %#x, pinned %#x", c.name, got, c.digest)
		}
		if got := h.Sum64(); got != c.snap {
			t.Errorf("%s: snapshot hash %#x, pinned %#x", c.name, got, c.snap)
		}
	}
}

// TestDynamicDigestPinnedNetworks pins the service engine's trajectory
// beyond butterflies: on mesh(8,8) and Beneš(3), where node pairs have
// many forward paths and draws go through counted rows, and on
// Omega(5), where every pair has at most one. Each run mixes λ-arrivals,
// SubmitRandom batches and explicit src/dst submissions, with admission
// retry on, so every kind of destination and path draw is exercised.
// The final Digest and an FNV-1a hash of the Snapshot JSON were
// recorded when the engine still kept per-source reach lists and
// counted a row for every destination up front.
func TestDynamicDigestPinnedNetworks(t *testing.T) {
	cases := []struct {
		name         string
		build        func() (*graph.Leveled, error)
		batch        int // upper end of each tenant's SubmitRandom batch
		digest, snap uint64
	}{
		{"mesh(8,8)", func() (*graph.Leveled, error) { return topo.Mesh(8, 8, topo.CornerNW) }, 6, 0x447fb93020a45a31, 0x7e6f98778e807ea4},
		{"benes(3)", func() (*graph.Leveled, error) { return topo.Benes(3) }, 6, 0x056c0a5a355347e1, 0xeb4ab58500bd1f9b},
		{"omega(5)", func() (*graph.Leveled, error) { return topo.Omega(5) }, 16, 0x612364a5e9761687, 0x7e3ac74631ae1795},
	}
	for _, c := range cases {
		g, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 29, Lambda: 0.02, Window: 40, Retry: RetryPolicy{MaxAttempts: 6, BaseDelay: 1, MaxDelay: 8}}
		e, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		load := rand.New(rand.NewSource(7))
		for step := 0; step < 250; step++ {
			for _, tenant := range []string{"gold", "free"} {
				if err := e.SubmitRandom(tenant, 1+load.Intn(c.batch)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				src := graph.NodeID(load.Intn(g.NumNodes()))
				reach := g.ForwardReachableFrom(src)
				var dsts []graph.NodeID
				for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
					if v != src && reach[v] {
						dsts = append(dsts, v)
					}
				}
				if len(dsts) == 0 {
					continue
				}
				if err := e.Submit("pair", src, dsts[load.Intn(len(dsts))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		r := e.Peek()
		if r.Deflections == 0 || r.Retried == 0 || r.Delivered == 0 {
			t.Fatalf("%s: load too light to exercise the deflection pass: %+v", c.name, r)
		}
		st, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if got := e.Digest(); got != c.digest {
			t.Errorf("%s: digest %#x, pinned %#x", c.name, got, c.digest)
		}
		if got := h.Sum64(); got != c.snap {
			t.Errorf("%s: snapshot hash %#x, pinned %#x", c.name, got, c.snap)
		}
	}
}
