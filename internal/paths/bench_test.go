package paths

import (
	"fmt"
	"math/rand"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

func BenchmarkRandomForwardPath(b *testing.B) {
	g, err := topo.Butterfly(8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	src := topo.ButterflyNode(g, 8, 0, 0)
	dst := topo.ButterflyNode(g, 8, 255, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomForwardPath(g, rng, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectMinCongestion(b *testing.B) {
	g, err := topo.Butterfly(6)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{
			Src: topo.ButterflyNode(g, 6, i, 0),
			Dst: topo.ButterflyNode(g, 6, (i*13)%64, 6),
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SelectMinCongestion(g, rng, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCongestion(b *testing.B) {
	g, err := topo.Butterfly(7)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	reqs := make([]Request, 128)
	for i := range reqs {
		reqs[i] = Request{
			Src: topo.ButterflyNode(g, 7, i, 0),
			Dst: topo.ButterflyNode(g, 7, (i*29)%128, 7),
		}
	}
	set, err := SelectRandom(g, rng, reqs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Congestion()
	}
}

// BenchmarkAppendPath draws paths through a CountTable whose rows are
// all kept, as a multi-path service engine's are once warm: from every
// source in turn to a random destination it reaches. Butterfly rows are
// bit rows, mesh rows bytes.
func BenchmarkAppendPath(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() (*graph.Leveled, error)
	}{
		{"butterfly(7)", func() (*graph.Leveled, error) { return topo.Butterfly(7) }},
		{"mesh(16,16)", func() (*graph.Leveled, error) { return topo.Mesh(16, 16, topo.CornerNW) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.g()
			if err != nil {
				b.Fatal(err)
			}
			reach, err := NewReach(g)
			if err != nil {
				b.Fatal(err)
			}
			ct := NewCountTable(g)
			var reqs []Request
			pick := rand.New(rand.NewSource(4))
			for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
				if n := reach.Len(s); n > 0 {
					d := reach.Nth(s, pick.Intn(n))
					reqs = append(reqs, Request{Src: s, Dst: d})
				}
			}
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				ct.at(v, 0)
			}
			rng := rand.New(rand.NewSource(5))
			buf := make(graph.Path, 0, g.Depth())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				if buf, err = ct.AppendPath(rng, r.Src, r.Dst, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPickDestination times the service engine's random packet on
// a unique-path network: a random source, a random destination it
// reaches (Nth) and the path draw off the reach matrix.
func BenchmarkPickDestination(b *testing.B) {
	for _, k := range []int{7, 10} {
		b.Run(fmt.Sprintf("butterfly(%d)", k), func(b *testing.B) {
			g, err := topo.Butterfly(k)
			if err != nil {
				b.Fatal(err)
			}
			reach, err := NewReach(g)
			if err != nil {
				b.Fatal(err)
			}
			var sources []graph.NodeID
			for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
				if reach.Len(s) > 0 {
					sources = append(sources, s)
				}
			}
			rng := rand.New(rand.NewSource(6))
			buf := make(graph.Path, 0, g.Depth())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sources[rng.Intn(len(sources))]
				d := reach.Nth(s, rng.Intn(reach.Len(s)))
				if buf, err = reach.AppendPath(s, d, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
