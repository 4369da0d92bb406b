package graph

import (
	"fmt"
	"testing"
)

// buildWide constructs a width x depth complete-bipartite leveled
// network directly with the builder (topo is not importable from here
// without a cycle in test dependencies; the construction is trivial).
func buildWide(depth, width int) *Leveled {
	b := NewBuilder(fmt.Sprintf("wide(%d,%d)", depth, width))
	prev := make([]NodeID, 0, width)
	cur := make([]NodeID, 0, width)
	for l := 0; l <= depth; l++ {
		cur = cur[:0]
		for r := 0; r < width; r++ {
			cur = append(cur, b.AddNode(l, ""))
		}
		if l > 0 {
			for _, u := range prev {
				for _, w := range cur {
					b.AddEdge(u, w)
				}
			}
		}
		prev = append(prev[:0], cur...)
	}
	return b.MustBuild()
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildWide(16, 8)
	}
}

func BenchmarkValidate(b *testing.B) {
	g := buildWide(16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachable(b *testing.B) {
	g := buildWide(32, 8)
	dst := g.Level(32)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reachable(dst)
	}
}

func BenchmarkCountForwardPaths(b *testing.B) {
	g := buildWide(32, 8)
	dst := g.Level(32)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CountForwardPaths(dst, 1<<40)
	}
}

func BenchmarkPathContainsLevel(b *testing.B) {
	g := buildWide(32, 4)
	// A straight path down column 0.
	var p Path
	for l := 0; l < 32; l++ {
		p = append(p, g.EdgeBetween(g.Level(l)[0], g.Level(l + 1)[0]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.PathContainsLevel(p, 0, 16); !ok {
			b.Fatal("level lost")
		}
	}
}
