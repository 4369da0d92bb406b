package dynamic

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
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

// TestNewEngineReachBudget checks that a network whose reach matrix
// would pass paths.MaxReachBytes is refused with an error naming the
// matrix size and the budget, before anything that size is allocated:
// a levelized dense random DAG on 132 nodes grows to 234,665 nodes once
// relays fill the levels its edges skip, a matrix of 8.6 GB.
func TestNewEngineReachBudget(t *testing.T) {
	g, _, err := topo.Levelize("dense-dag", 132, topo.RandomDAG(rand.New(rand.NewSource(3)), 132, 200.0/255))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 234665 {
		t.Fatalf("levelized DAG has %d nodes, want 234665", g.NumNodes())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = NewEngine(g, Config{Seed: 1})
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing the network allocated %d bytes", n)
	}
	if err == nil {
		t.Fatal("NewEngine accepted a network past the reach budget")
	}
	for _, want := range []string{"234665 nodes", "8606104210 bytes", "134217728-byte budget"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if paths.MaxReachBytes != 134217728 {
		t.Fatalf("MaxReachBytes = %d; restate the expected error", paths.MaxReachBytes)
	}
}
