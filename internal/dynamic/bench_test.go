package dynamic

import (
	"fmt"
	"testing"

	"hotpotato/internal/topo"
)

// engineSink keeps the benchmarked builds observable.
var engineSink *Engine

// BenchmarkNewEngine builds a service engine — the reach matrix and the
// packet columns — as every snapshot restore does. butterfly(11) is the
// largest butterfly whose matrix fits paths.MaxReachBytes.
func BenchmarkNewEngine(b *testing.B) {
	for _, k := range []int{7, 8, 10, 11} {
		b.Run(fmt.Sprintf("butterfly(%d)", k), func(b *testing.B) {
			g, err := topo.Butterfly(k)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := NewEngine(g, Config{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				engineSink = e
			}
		})
	}
}

// BenchmarkSubmitStep times one step of a service engine fed random
// packets every step: the path draws for those packets plus the step
// that routes them. butterfly(10) is the smallest butterfly whose
// one-byte count rows passed paths.MaxCountBytes.
func BenchmarkSubmitStep(b *testing.B) {
	for _, c := range []struct{ k, packets int }{{8, 60}, {10, 120}} {
		b.Run(fmt.Sprintf("butterfly(%d)", c.k), func(b *testing.B) {
			g, err := topo.Butterfly(c.k)
			if err != nil {
				b.Fatal(err)
			}
			e, err := NewEngine(g, Config{Seed: 1, Retry: RetryPolicy{MaxAttempts: 8}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.SubmitRandom("bench", c.packets); err != nil {
					b.Fatal(err)
				}
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
