package bench

import (
	"testing"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/topo"
)

// BenchmarkDynamicStep measures the open-system engine's per-step cost
// under the sustained service workload (a SubmitRandom batch every few
// steps, the scripted shape the -bench dynamic suite replays): the go-bench
// counterpart of the butterfly(5)-service row in BENCH_dynamic.json.
// On a warmed engine it must report 0 allocs/op.
func BenchmarkDynamicStep(b *testing.B) {
	g, err := topo.Butterfly(5)
	if err != nil {
		b.Fatal(err)
	}
	e, err := dynamic.NewEngine(g, dynamic.Config{
		Seed:  42,
		Retry: dynamic.RetryPolicy{MaxAttempts: 8},
	})
	if err != nil {
		b.Fatal(err)
	}
	step := func() {
		if err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
	// Warm rep: one full batch/advance/drain script grows every backing
	// (slot columns, path buffers, queue arenas, the tenant ledger).
	for batch := 0; batch < 24; batch++ {
		if err := e.SubmitRandom("bench", 16); err != nil {
			b.Fatal(err)
		}
		for a := 0; a < 5; a++ {
			step()
		}
	}
	for e.HasWork() {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%5 == 0 {
			if err := e.SubmitRandom("bench", 16); err != nil {
				b.Fatal(err)
			}
		}
		step()
	}
}
