package dynamic

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// TestSubmitAcceptsExactlyForwardPairs checks Submit against the BFS
// definition of its accept set on every (src, dst) pair, including
// src == dst, sources at the top level or without Up edges, and
// out-of-range nodes: it accepts exactly the pairs where src has an Up
// edge and forward-reaches dst ≠ src. The eligible sources are the nodes
// with an Up edge, in ID order.
func TestSubmitAcceptsExactlyForwardPairs(t *testing.T) {
	dag, _, err := topo.Levelize("dag", 40, topo.RandomDAG(rand.New(rand.NewSource(5)), 40, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	nets := []*graph.Leveled{dag}
	for _, build := range []func() (*graph.Leveled, error){
		func() (*graph.Leveled, error) { return topo.Butterfly(3) },
		func() (*graph.Leveled, error) { return topo.Mesh(4, 5, topo.CornerNW) },
		func() (*graph.Leveled, error) { return topo.Benes(2) },
	} {
		g, err := build()
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, g)
	}
	for _, g := range nets {
		e, err := NewEngine(g, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		nn := g.NumNodes()
		var sources []graph.NodeID
		for v := graph.NodeID(0); int(v) < nn; v++ {
			if g.Node(v).Level < g.Depth() && len(g.Node(v).Up) > 0 {
				sources = append(sources, v)
			}
		}
		if !slices.Equal(e.sources, sources) {
			t.Fatalf("%s: sources %v, want %v", g.Name(), e.sources, sources)
		}
		for src := graph.NodeID(-1); int(src) <= nn; src++ {
			var reach []bool
			if src >= 0 && int(src) < nn {
				reach = g.ForwardReachableFrom(src)
			}
			for dst := graph.NodeID(-1); int(dst) <= nn; dst++ {
				want := reach != nil && dst >= 0 && int(dst) < nn && dst != src &&
					len(g.Node(src).Up) > 0 && reach[dst]
				if got := e.Submit("t", src, dst) == nil; got != want {
					t.Fatalf("%s: Submit(%d, %d) accepted = %v, want %v", g.Name(), src, dst, got, want)
				}
			}
		}
	}
}
