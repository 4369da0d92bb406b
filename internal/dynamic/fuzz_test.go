package dynamic

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/persist"
	"hotpotato/internal/topo"
)

// FuzzEngineHistory decodes the input into a history of Submit,
// SubmitPath, SubmitRandom, Step and snapshot → Restore operations and
// runs it on butterfly(4), where every pair has one forward path, or a
// 4×4 mesh, where pairs have many, with λ-arrivals and admission retry
// on. One engine is replaced by a restore of its JSON snapshot at every
// restore operation; its twin runs the same history uninterrupted. After
// every operation both must agree on Digest, Live and QueueDepth and
// write the same snapshot bytes, and every submission must be accepted
// or refused by both alike.
func FuzzEngineHistory(f *testing.F) {
	f.Add(false, []byte{2, 40, 3, 0, 1, 5, 3, 1, 9, 2, 3, 4, 3, 3, 2, 200, 3, 4, 3, 3})
	f.Add(true, []byte{2, 90, 0, 4, 7, 3, 4, 1, 3, 3, 3, 4, 2, 30, 3, 3, 4, 3})
	f.Add(false, bytes.Repeat([]byte{2, 255, 3, 0, 17, 33, 1, 2, 8, 4, 3}, 12))
	f.Add(true, bytes.Repeat([]byte{2, 255, 1, 6, 0, 0, 9, 3, 4, 3}, 12))
	nets := map[bool]*graph.Leveled{
		false: mustNet(f)(topo.Butterfly(4)),
		true:  mustNet(f)(topo.Mesh(4, 4, topo.CornerNW)),
	}
	f.Fuzz(func(t *testing.T, mesh bool, ops []byte) {
		g := nets[mesh]
		reach, err := paths.NewReach(g)
		if err != nil {
			t.Fatal(err)
		}
		var sources []graph.NodeID
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if reach.Len(v) > 0 {
				sources = append(sources, v)
			}
		}
		cfg := Config{
			Lambda: 0.05, Seed: 11, MaxInFlight: 48, Window: 4,
			Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 4},
		}
		restored, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewEngine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// next reads the input a byte at a time, 0 past its end.
		at := 0
		next := func() byte {
			if at >= len(ops) {
				return 0
			}
			at++
			return ops[at-1]
		}
		pair := func() (graph.NodeID, graph.NodeID) {
			s := sources[int(next())%len(sources)]
			return s, reach.Nth(s, int(next())%reach.Len(s))
		}
		both := func(op string, do func(*Engine) error) {
			ea, eb := do(restored), do(twin)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("op %d (%s): restored engine returned %v, twin %v", at, op, ea, eb)
			}
		}
		for n := 0; at < len(ops) && n < 256; n++ {
			tenant := [2]string{"gold", "free"}[ops[at]>>7]
			switch op := next() % 5; op {
			case 0:
				src, dst := pair()
				both("Submit", func(e *Engine) error { return e.Submit(tenant, src, dst) })
			case 1:
				src, dst := pair()
				path, err := paths.RandomForwardPath(g, rand.New(rand.NewSource(int64(next()))), src, dst)
				if err != nil {
					t.Fatal(err)
				}
				both("SubmitPath", func(e *Engine) error { return e.SubmitPath(tenant, path) })
			case 2:
				k := int(next()) % 40
				both("SubmitRandom", func(e *Engine) error { return e.SubmitRandom(tenant, k) })
			case 3:
				both("Step", func(e *Engine) error { return e.Step() })
			case 4:
				var st persist.EngineState
				if err := json.Unmarshal(snapshotJSON(t, restored), &st); err != nil {
					t.Fatal(err)
				}
				if restored, err = Restore(g, &st, Hooks{}); err != nil {
					t.Fatalf("op %d: restore: %v", at, err)
				}
			}
			if restored.Digest() != twin.Digest() || restored.Live() != twin.Live() || restored.QueueDepth() != twin.QueueDepth() {
				t.Fatalf("op %d: digest %#x live %d queued %d, twin %#x, %d, %d", at,
					restored.Digest(), restored.Live(), restored.QueueDepth(), twin.Digest(), twin.Live(), twin.QueueDepth())
			}
			if a, b := snapshotJSON(t, restored), snapshotJSON(t, twin); !bytes.Equal(a, b) {
				t.Fatalf("op %d: snapshots differ:\n%s\ntwin:\n%s", at, a, b)
			}
		}
	})
}

// mustNet fails the fuzz target when a network cannot be built.
func mustNet(f *testing.F) func(*graph.Leveled, error) *graph.Leveled {
	return func(g *graph.Leveled, err error) *graph.Leveled {
		if err != nil {
			f.Fatal(err)
		}
		return g
	}
}

// snapshotJSON is e's snapshot as JSON.
func snapshotJSON(t *testing.T, e *Engine) []byte {
	t.Helper()
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
