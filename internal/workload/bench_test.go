package workload

import (
	"math/rand"
	"testing"

	"hotpotato/internal/topo"
)

// BenchmarkHotSpot draws the outside-in benchmark's batch problem:
// 1024 packets to 8 spots on butterfly(10).
func BenchmarkHotSpot(b *testing.B) {
	g, err := topo.Butterfly(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HotSpot(g, rand.New(rand.NewSource(int64(i))), 1024, 8); err != nil {
			b.Fatal(err)
		}
	}
}
