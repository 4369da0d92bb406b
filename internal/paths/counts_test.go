package paths

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// refPath draws a src→dst path from graph.CountForwardPaths — the
// full-width counts, computed independently of CountTable — with the
// weighted per-hop draw RandomForwardPath documents.
func refPath(g *graph.Leveled, rng *rand.Rand, src, dst graph.NodeID) graph.Path {
	return refDraw(g, g.CountForwardPaths(dst, satCap), rng, src, dst)
}

// refDraw is refPath's draw over the given counts to dst.
func refDraw(g *graph.Leveled, cnt []int64, rng *rand.Rand, src, dst graph.NodeID) graph.Path {
	var p graph.Path
	for cur := src; cur != dst; {
		var total int64
		for _, e := range g.Node(cur).Up {
			total += cnt[g.Edge(e).To]
		}
		pick := rng.Int63n(total)
		for _, e := range g.Node(cur).Up {
			if c := cnt[g.Edge(e).To]; pick >= c {
				pick -= c
				continue
			}
			p = append(p, e)
			cur = g.Edge(e).To
			break
		}
	}
	return p
}

// TestCountRowWidths checks each row takes the narrowest width that
// holds its largest count — a bit row when every count is 0 or 1 — and
// that draws on every width consume the RNG exactly as
// RandomForwardPath and the full-width reference do.
func TestCountRowWidths(t *testing.T) {
	must := mustTopo(t)
	bfly := must(topo.Butterfly(5))
	benes := must(topo.Benes(3))
	omega := must(topo.Omega(4))
	mesh := must(topo.Mesh(7, 6, topo.CornerNW))
	cases := []struct {
		name  string
		g     *graph.Leveled
		dst   graph.NodeID
		width int
		top   uint64 // count at the level-0 source of the draws
	}{
		// Every butterfly and Omega count is 0 or 1: bit rows.
		{"butterfly(5) top", bfly, bfly.Level(5)[7], bitWidth, 1},
		{"butterfly(5) mid", bfly, bfly.Level(3)[0], bitWidth, 1},
		{"omega(4) top", omega, omega.Level(4)[5], bitWidth, 1},
		// Beneš is a butterfly then a reversed one: unique paths up to
		// the middle level, 2^j of them j levels past it.
		{"benes(3) mid", benes, benes.Level(3)[5], bitWidth, 1},
		{"benes(3) top", benes, benes.Level(6)[5], 1, 8},
		// A node on the mesh's first row has one path from each node
		// that reaches it.
		{"mesh(7,6) row", mesh, topo.MeshNode(6, 0, 4), bitWidth, 1},
		// Mesh counts are binomials: C(2,1) = 2 to (1,1).
		{"mesh(7,6) near", mesh, topo.MeshNode(6, 1, 1), 1, 2},
		// C(14,7) = 3432 to the far corner; the next hops' counts pass
		// 255 too, so a truncated row would skew the draws.
		{"mesh(8,8) far", must(topo.Mesh(8, 8, topo.CornerNW)), topo.MeshNode(8, 7, 7), 2, 3432},
		// C(30,15) = 155117520.
		{"mesh(16,16) far", must(topo.Mesh(16, 16, topo.CornerNW)), topo.MeshNode(16, 15, 15), 4, 155117520},
		// C(46,23) ≈ 8.2e12 saturates at 2^40.
		{"mesh(24,24) far", must(topo.Mesh(24, 24, topo.CornerNW)), topo.MeshNode(24, 23, 23), 8, satCap},
	}
	for _, c := range cases {
		ct := NewCountTable(c.g)
		src := c.g.Level(0)[0]
		if got := ct.at(c.dst, src); got != c.top {
			t.Errorf("%s: count at %d = %d, want %d", c.name, src, got, c.top)
		}
		if got := int(ct.rowOf(c.dst).width); got != c.width {
			t.Errorf("%s: row width %d, want %d", c.name, got, c.width)
		}
		var srcs []graph.NodeID
		for v := graph.NodeID(0); int(v) < c.g.NumNodes(); v++ {
			if v != c.dst && ct.at(c.dst, v) > 0 {
				srcs = append(srcs, v)
			}
		}
		rt, rr, rw := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			s := srcs[i%len(srcs)]
			got, err := ct.AppendPath(rt, s, c.dst, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want, err := RandomForwardPath(c.g, rr, s, c.dst)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			ref := refPath(c.g, rw, s, c.dst)
			if !slices.Equal(got, want) || !slices.Equal(got, ref) {
				t.Fatalf("%s: draw %d from %d = %v, RandomForwardPath %v, reference %v", c.name, i, s, got, want, ref)
			}
		}
		if a, b, r := rt.Int63(), rr.Int63(), rw.Int63(); a != b || a != r {
			t.Fatalf("%s: next rng draws %d, %d, %d differ", c.name, a, b, r)
		}
	}
}

// reachTopologies covers the regular networks and an irregular DAG.
func reachTopologies(t *testing.T) []*graph.Leveled {
	must := mustTopo(t)
	dag, _, err := topo.Levelize("dag", 48, topo.RandomDAG(rand.New(rand.NewSource(3)), 48, 0.12))
	return []*graph.Leveled{
		must(topo.Butterfly(5)),
		must(topo.Benes(3)),
		must(topo.Omega(4)),
		must(topo.Mesh(7, 6, topo.CornerNW)),
		must(dag, err),
	}
}

// checkReach checks row s of the matrix against graph's BFS from s:
// Contains at every node, Len, and Nth(s, k) against the k-th node the
// BFS reaches in ascending order, s excluded.
func checkReach(t *testing.T, g *graph.Leveled, reach *Reach, s graph.NodeID) {
	t.Helper()
	fwd := g.ForwardReachableFrom(s)
	fwd[s] = false
	if want := len(slices.DeleteFunc(slices.Clone(fwd), func(b bool) bool { return !b })); reach.Len(s) != want {
		t.Fatalf("%s: Len(%d) = %d, BFS %d", g.Name(), s, reach.Len(s), want)
	}
	k := 0
	for d := graph.NodeID(0); int(d) < g.NumNodes(); d++ {
		if reach.Contains(s, d) != fwd[d] {
			t.Fatalf("%s: Contains(%d, %d) = %v", g.Name(), s, d, !fwd[d])
		}
		if !fwd[d] {
			continue
		}
		if got := reach.Nth(s, k); got != d {
			t.Fatalf("%s: Nth(%d, %d) = %d, BFS %d", g.Name(), s, k, got, d)
		}
		k++
	}
}

// TestReach checks the reach matrix against per-source BFS and its
// unique-path verdict against the topology, and checks draws to every
// reachable pair against RandomForwardPath: off the matrix on the
// unique-path networks, and on every network through a CountTable with
// every row kept and through one whose budget keeps only some, so that
// draws past it are recounted per draw.
func TestReach(t *testing.T) {
	unique := map[string]bool{"butterfly(5)": true, "omega(4)": true}
	for _, g := range reachTopologies(t) {
		reach, err := NewReach(g)
		if err != nil {
			t.Fatal(err)
		}
		if reach.Unique() != unique[g.Name()] {
			t.Fatalf("%s: Unique() = %v", g.Name(), reach.Unique())
		}
		for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
			checkReach(t, g, reach, s)
		}
		full := NewCountTable(g)
		for _, ct := range []*CountTable{full, newCountTable(g, 3*g.NumNodes())} {
			name := fmt.Sprintf("%s/budget=%d", g.Name(), ct.budget)
			rt, rm, rr := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
			for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
				for k := 0; k < reach.Len(s); k++ {
					d := reach.Nth(s, k)
					got, err := ct.AppendPath(rt, s, d, nil)
					if err != nil {
						t.Fatalf("%s: %d→%d: %v", name, s, d, err)
					}
					want, _ := RandomForwardPath(g, rr, s, d)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: %d→%d drew %v, RandomForwardPath %v", name, s, d, got, want)
					}
					if ct != full || !reach.Unique() {
						continue
					}
					if got, err = reachDraw(reach)(rm, s, d, nil); err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s: %d→%d drew %v (%v) off the matrix, RandomForwardPath %v", name, s, d, got, err, want)
					}
				}
			}
			a, m, b := rt.Int63(), rm.Int63(), rr.Int63()
			if a != b || ct == full && reach.Unique() && m != b {
				t.Fatalf("%s: next rng draws %d, %d off the matrix, RandomForwardPath %d", name, a, m, b)
			}
			if ct != full && ct.used == full.used {
				t.Fatalf("%s: every row kept; the recount path is not exercised", name)
			}
		}
		if full.used == 0 || full.used > MaxCountBytes {
			t.Fatalf("%s: kept %d bytes of rows", g.Name(), full.used)
		}
		src := graph.NodeID(0)
		for reach.Len(src) == 0 {
			src++
		}
		if _, err := reach.AppendPath(src, reach.Nth(src, 0), nil); (err == nil) != reach.Unique() {
			t.Fatalf("%s: matrix draw error %v on a network with Unique() = %v", g.Name(), err, reach.Unique())
		}
	}
}

// TestReachButterfly10 checks the matrix's capability: butterfly(10)
// fits MaxReachBytes as one unique-path matrix whose rows match
// per-source BFS on a sample of sources, and whose draws match the
// count rows'. CountTable keeps a bit row for every butterfly(10)
// destination within MaxCountBytes (one-byte rows would take 110 MiB).
func TestReachButterfly10(t *testing.T) {
	g := mustTopo(t)(topo.Butterfly(10))
	reach, err := NewReach(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reach.Unique() {
		t.Fatal("butterfly(10) is not unique-path")
	}
	ct := NewCountTable(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if len(g.Node(v).Down) == 0 {
			continue
		}
		ct.at(v, 0)
		if ct.rowOf(v).width != bitWidth {
			t.Fatalf("destination %d: row width %d, want a bit row", v, ct.rowOf(v).width)
		}
	}
	if ct.used > MaxCountBytes {
		t.Fatalf("rows take %d bytes, past the %d-byte budget", ct.used, MaxCountBytes)
	}
	rng := rand.New(rand.NewSource(10))
	rm, rt := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		checkReach(t, g, reach, s)
		if reach.Len(s) == 0 {
			continue
		}
		d := reach.Nth(s, rng.Intn(reach.Len(s)))
		got, err := reachDraw(reach)(rm, s, d, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := ct.AppendPath(rt, s, d, nil); !slices.Equal(got, want) {
			t.Fatalf("%d→%d drew %v off the matrix, %v off the rows", s, d, got, want)
		}
	}
	if a, b := rm.Int63(), rt.Int63(); a != b {
		t.Fatalf("next rng draws %d off the matrix, %d off the rows", a, b)
	}
}

// TestCountTableBudget checks the byte budget: a kept row costs its
// width times the node count, and a row that would pass the budget is
// not kept.
func TestCountTableBudget(t *testing.T) {
	g := mustTopo(t)(topo.Mesh(7, 6, topo.CornerNW))
	nn := g.NumNodes()
	near, far := topo.MeshNode(6, 1, 1), topo.MeshNode(6, 6, 5)
	ct := newCountTable(g, 2*nn)
	ct.at(near, 0)
	if ct.rowOf(near).width != 1 || ct.used != nn {
		t.Fatalf("near row: width %d, %d bytes kept", ct.rowOf(near).width, ct.used)
	}
	if ct.at(far, 0) != 462 || ct.rowOf(far).width != 0 || ct.used != nn {
		t.Fatalf("far row past the budget: width %d, %d bytes kept", ct.rowOf(far).width, ct.used)
	}
	// Drawing to the kept row after the scratch moved on still reads it.
	if ct.at(near, 0) != 2 {
		t.Fatalf("near row count %d after a scratch recount", ct.at(near, 0))
	}
}
