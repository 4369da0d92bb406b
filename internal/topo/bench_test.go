package topo

import (
	"math/rand"
	"testing"
)

func BenchmarkButterfly(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Butterfly(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMesh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Mesh(32, 32, CornerNW); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypercube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Hypercube(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomLeveled(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		if _, err := Random(rng, 64, 4, 8, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLevelize(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	edges := RandomDAG(rng, 64, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Levelize("bench", 64, edges); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOmegaRoutePath(b *testing.B) {
	g, err := Omega(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OmegaRoutePath(g, 8, i%256, (i*37)%256); err != nil {
			b.Fatal(err)
		}
	}
}
