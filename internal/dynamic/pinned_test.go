package dynamic

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"hotpotato/internal/faults"
	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/persist"
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

// TestDynamicTrajectoryPinned pins the service engine's whole trajectory
// on butterfly(4) over seeds × faults × retry, under a mixed workload
// (SubmitRandom, Submit and SubmitPath in turn) with a JSON snapshot →
// Restore round-trip at the midpoint. Each case folds every step's
// Digest, Live and QueueDepth, and the snapshot bytes every 16 steps,
// after the restore and at the end, into one FNV-1a trace hash, and
// pins it with the final Digest. The pins were recorded while a frozen
// copy of the pre-SoA engine still ran in lockstep with this one and
// matched it at every step, so each value is also that engine's.
func TestDynamicTrajectoryPinned(t *testing.T) {
	cases := []struct {
		seed           int64
		faulted, retry bool
		trace, digest  uint64
	}{
		{1, false, false, 0x8f32ac28aa9d064b, 0xbf99d72bf4f93009},
		{1, false, true, 0x6f21a2c84b28c0f0, 0x2190b3cf72a29bea},
		{1, true, false, 0xd6548a6446d44c8e, 0x3c6a4310b2a9e9b2},
		{1, true, true, 0x60ac7913d600762c, 0x15cf55f8faf55963},
		{7, false, false, 0xd378be534138c331, 0xb7c3163b915bbac6},
		{7, false, true, 0x21ab4bf735fa4e3f, 0x825513594c6b39b0},
		{7, true, false, 0x330dda2c6264b004, 0x9ee82dfdf7541b40},
		{7, true, true, 0x33f6635b658fc979, 0x6e2353094805f652},
		{42, false, false, 0x205ba87851064646, 0xcb226503a47f9aa3},
		{42, false, true, 0x161976099660bcdc, 0x9d531ee19ed978bb},
		{42, true, false, 0xb5c04b7513850679, 0xb52d8f744203633f},
		{42, true, true, 0x1872e489bdae0095, 0x2aef33ef2a255846},
	}
	const steps = 96
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed=%d/faulted=%v/retry=%v", c.seed, c.faulted, c.retry), func(t *testing.T) {
			cfg := Config{Lambda: 0.12, Warmup: 2, Seed: c.seed, MaxInFlight: 64, Window: 8}
			if c.faulted {
				cfg.Faults = faults.Flap{Period: 16, Down: 4, Rate: 0.25}.Model(g, c.seed+5)
			}
			if c.retry {
				cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 8}
			}
			e, err := NewEngine(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Explicit paths and (src, dst) pairs come from a workload
			// RNG independent of the engine's.
			wrng := rand.New(newSM64(c.seed ^ 0x77))
			var explicit [][]graph.EdgeID
			var pairs [][2]graph.NodeID
			for v := graph.NodeID(0); int(v) < g.NumNodes() && len(pairs) < 8; v++ {
				if len(g.Node(v).Up) == 0 {
					continue
				}
				reach := g.ForwardReachableFrom(v)
				for d := graph.NodeID(0); int(d) < g.NumNodes(); d++ {
					if d != v && reach[d] {
						pairs = append(pairs, [2]graph.NodeID{v, d})
						p, err := paths.RandomForwardPath(g, wrng, v, d)
						if err != nil {
							t.Fatal(err)
						}
						explicit = append(explicit, p)
						break
					}
				}
			}
			h := fnv.New64a()
			fold := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			snapshot := func() []byte {
				st, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				raw, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}
			for s := 0; s < steps; s++ {
				switch s % 4 {
				case 0:
					err = e.SubmitRandom("gold", 3)
				case 1:
					err = e.Submit("free", pairs[s%len(pairs)][0], pairs[s%len(pairs)][1])
				case 2:
					err = e.SubmitPath("gold", explicit[s%len(explicit)])
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Step(); err != nil {
					t.Fatalf("step %d: %v", s, err)
				}
				fold(e.Digest())
				fold(uint64(e.Live()))
				fold(uint64(e.QueueDepth()))
				if s%16 == 7 {
					h.Write(snapshot())
				}
				if s == steps/2 {
					var back persist.EngineState
					if err := json.Unmarshal(snapshot(), &back); err != nil {
						t.Fatal(err)
					}
					if e, err = Restore(g, &back, Hooks{Faults: cfg.Faults}); err != nil {
						t.Fatalf("step %d: restore: %v", s, err)
					}
					// A field Restore drops may not move the trajectory
					// (prev_forward only matters to a deflection in the
					// next step), but it shows in the restored bytes.
					h.Write(snapshot())
				}
			}
			h.Write(snapshot())
			r := e.Peek()
			if r.Deflections == 0 || (c.retry && r.Retried == 0) || (c.faulted && r.FaultBlocked == 0) {
				t.Fatalf("load too light to exercise the case: %+v", r)
			}
			if got := e.Digest(); got != c.digest {
				t.Errorf("digest %#x, pinned %#x", got, c.digest)
			}
			if got := h.Sum64(); got != c.trace {
				t.Errorf("trace hash %#x, pinned %#x", got, c.trace)
			}
		})
	}
}
