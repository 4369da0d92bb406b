package topo_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
	"hotpotato/internal/topo"
)

func generated(t *testing.T) []*graph.Leveled {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	gens := []func() (*graph.Leveled, error){
		func() (*graph.Leveled, error) { return topo.Linear(5) },
		func() (*graph.Leveled, error) { return topo.Ladder(4) },
		func() (*graph.Leveled, error) { return topo.Complete(3, 4) },
		func() (*graph.Leveled, error) { return topo.Random(rng, 6, 1, 5, 0.4) },
		func() (*graph.Leveled, error) { return topo.Butterfly(4) },
		func() (*graph.Leveled, error) { return topo.ButterflyRadix(2, 3) },
		func() (*graph.Leveled, error) { return topo.Benes(3) },
		func() (*graph.Leveled, error) { return topo.Omega(4) },
		func() (*graph.Leveled, error) { return topo.Mesh(4, 5, topo.CornerNW) },
		func() (*graph.Leveled, error) { return topo.Mesh(3, 4, topo.CornerSE) },
		func() (*graph.Leveled, error) { return topo.Array(2, 3, 2) },
		func() (*graph.Leveled, error) { return topo.Hypercube(4) },
		func() (*graph.Leveled, error) { return topo.BinaryTree(4) },
		func() (*graph.Leveled, error) { return topo.FatTree(3, 2) },
		func() (*graph.Leveled, error) {
			g, _, err := topo.Levelize("dag", 30, topo.RandomDAG(rng, 30, 0.2))
			return g, err
		},
	}
	var gs []*graph.Leveled
	for _, gen := range gens {
		g, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g)
	}
	return gs
}

// checkAdjacency requires every node's Up and Down lists to equal the
// lists rebuilt by walking Edges in ID order, with nil for empty lists
// and no spare capacity that an append could write through.
func checkAdjacency(t *testing.T, g *graph.Leveled) {
	t.Helper()
	up := make([][]graph.EdgeID, g.NumNodes())
	down := make([][]graph.EdgeID, g.NumNodes())
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		up[ed.From] = append(up[ed.From], e)
		down[ed.To] = append(down[ed.To], e)
	}
	for v := range up {
		n := g.Node(graph.NodeID(v))
		for _, l := range []struct {
			dir       string
			got, want []graph.EdgeID
		}{{"Up", n.Up, up[v]}, {"Down", n.Down, down[v]}} {
			if !slices.Equal(l.got, l.want) || (l.got == nil) != (l.want == nil) || cap(l.got) != len(l.got) {
				t.Fatalf("%s: node %d %s = %v (nil %t, cap %d), want %v", g.Name(), v, l.dir, l.got, l.got == nil, cap(l.got), l.want)
			}
		}
	}
}

func encode(t *testing.T, g *graph.Leveled) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := persist.WriteNetwork(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBuilderAdjacencyMatchesEdgeOrder(t *testing.T) {
	for _, g := range generated(t) {
		checkAdjacency(t, g)
		// Appending to any list must leave every other list intact.
		for v := 0; v < g.NumNodes(); v++ {
			n := g.Node(graph.NodeID(v))
			_ = append(n.Up, graph.NoEdge)
			_ = append(n.Down, graph.NoEdge)
		}
		checkAdjacency(t, g)

		enc := encode(t, g)
		back, err := persist.ReadNetwork(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		checkAdjacency(t, back)
		if again := encode(t, back); !bytes.Equal(again, enc) {
			t.Fatalf("%s: re-encoded network differs from the original", g.Name())
		}
	}
}

// TestEncodedNetworkBytesPinned pins the persisted form of generated
// networks, so a construction change cannot silently renumber nodes or
// edges, or relabel nodes.
func TestEncodedNetworkBytesPinned(t *testing.T) {
	must := func(g *graph.Leveled, err error) *graph.Leveled {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		g    *graph.Leveled
		want string
	}{
		{must(topo.Butterfly(4)), "4014a8332544abb2"},
		{must(topo.Benes(5)), "1a61b1fe1887cb23"},
		{must(topo.Omega(4)), "ea5a6864710f3e41"},
		{must(topo.Mesh(4, 5, topo.CornerNW)), "68678c4f740daa8a"},
		{must(topo.Hypercube(4)), "64f5893d2eda9aa5"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(encode(t, c.g)))[:16]; got != c.want {
			t.Errorf("%s: encoded digest %s, want %s", c.g.Name(), got, c.want)
		}
	}
}

func TestRowLabels(t *testing.T) {
	g, err := topo.Butterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := g.Node(0).Label, g.Node(graph.NodeID(g.NumNodes()-1)).Label; first != "w000.l0" || last != "w111.l3" {
		t.Fatalf("butterfly(3) labels run %q .. %q, want w000.l0 .. w111.l3", first, last)
	}
	// Beneš(5) has two-digit levels; Omega shares the same labelling.
	for _, c := range []struct {
		k     int
		build func(int) (*graph.Leveled, error)
	}{{3, topo.Butterfly}, {5, topo.Benes}, {4, topo.Omega}} {
		g, err := c.build(c.k)
		if err != nil {
			t.Fatal(err)
		}
		rows := 1 << c.k
		for v := 0; v < g.NumNodes(); v++ {
			n := g.Node(graph.NodeID(v))
			if want := fmt.Sprintf("w%0*b.l%d", c.k, v%rows, v/rows); n.Label != want || n.Level != v/rows {
				t.Fatalf("%s: node %d is %q at level %d, want %q at level %d", g.Name(), v, n.Label, n.Level, want, v/rows)
			}
		}
	}
}
