package paths

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// FuzzCountTable checks every row of CountTables over random leveled
// DAGs against graph.CountForwardPaths: one table filled through at in
// ascending destination order with the full budget, and one filled
// lazily as rows are read, in a shuffled destination order, under a
// budget taken from the input so that some destinations are recounted
// on every read. Every row must hold the exact saturated counts at
// every node, be kept at the narrowest width that holds them (bit, 1,
// 2, 4 or 8 bytes), and draw the same paths with the same final RNG
// state as refDraw.
func FuzzCountTable(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(40), uint16(300))
	f.Add(int64(2), uint8(70), uint8(12), uint16(50)) // multi-word bit rows
	f.Add(int64(5), uint8(40), uint8(120), uint16(0)) // every draw recounts
	f.Add(int64(4), uint8(5), uint8(255), uint16(9000))
	f.Fuzz(func(t *testing.T, seed int64, n, density uint8, budget uint16) {
		rng := rand.New(rand.NewSource(seed))
		dagNodes := 2 + int(n)%96
		g, _, err := topo.Levelize("fuzz", dagNodes, topo.RandomDAG(rng, dagNodes, float64(density)/1024))
		if err != nil {
			t.Fatalf("Levelize rejected a random DAG: %v", err)
		}
		// Levelize adds a relay node per level a DAG edge skips, so dense
		// DAGs grow fast; every check is quadratic in the nodes or worse.
		nn := g.NumNodes()
		if nn > maxFuzzNodes {
			return
		}
		full := NewCountTable(g)
		for d := graph.NodeID(0); int(d) < nn; d++ {
			full.at(d, 0)
		}
		lazy := newCountTable(g, int(budget))
		dsts := rng.Perm(nn)
		for _, d := range dsts {
			dst := graph.NodeID(d)
			want := g.CountForwardPaths(dst, satCap)
			top := slices.Max(want)
			for _, ct := range []*CountTable{full, lazy} {
				for v := graph.NodeID(0); int(v) < nn; v++ {
					if got := ct.at(dst, v); got != uint64(want[v]) {
						t.Fatalf("row %d at %d = %d, want %d", dst, v, got, want[v])
					}
				}
				w := ct.rowOf(dst).width
				if ct == full && w == 0 && len(g.Node(dst).Down) > 0 {
					t.Fatalf("the full budget kept no row for %d", dst)
				}
				if w != 0 && w != narrowest(top) {
					t.Fatalf("row %d (largest count %d) has width %d, want %d", dst, top, w, narrowest(top))
				}
				drawAll(t, g, ct.AppendPath, want, dst)
			}
		}
	})
}

const maxFuzzNodes = 400

// narrowest is the row width that holds top: a bit row for 0 or 1,
// else the fewest bytes.
func narrowest(top int64) uint8 {
	switch {
	case top <= 1:
		return bitWidth
	case top < 1<<8:
		return 1
	case top < 1<<16:
		return 2
	case top < 1<<32:
		return 4
	}
	return 8
}

// drawer is a path source under test: CountTable.AppendPath, or
// reachDraw over a Reach.
type drawer func(rng *rand.Rand, src, dst graph.NodeID, buf graph.Path) (graph.Path, error)

// reachDraw draws through r's RNG-free walk and then advances rng by
// one draw per hop, as the service engine does, so that the stream
// stays where a counted draw of the same path leaves it.
func reachDraw(r *Reach) drawer {
	return func(rng *rand.Rand, src, dst graph.NodeID, buf graph.Path) (graph.Path, error) {
		p, err := r.AppendPath(src, dst, buf)
		for range p {
			rng.Int63()
		}
		return p, err
	}
}

// drawAll draws a path to dst from every node that reaches it through
// d and through refDraw from the same seed, and requires the same
// paths and the same RNG state afterwards.
func drawAll(t *testing.T, g *graph.Leveled, d drawer, want []int64, dst graph.NodeID) {
	t.Helper()
	rt, rr := rand.New(rand.NewSource(int64(dst))), rand.New(rand.NewSource(int64(dst)))
	for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
		if s == dst || want[s] == 0 {
			continue
		}
		got, err := d(rt, s, dst, nil)
		if err != nil {
			t.Fatalf("%d→%d: %v", s, dst, err)
		}
		if ref := refDraw(g, want, rr, s, dst); !slices.Equal(got, ref) {
			t.Fatalf("%d→%d drew %v, reference %v", s, dst, got, ref)
		}
	}
	if a, b := rt.Int63(), rr.Int63(); a != b {
		t.Fatalf("paths to %d: next rng draws %d, reference %d", dst, a, b)
	}
}

// FuzzReach checks the reach matrix of random leveled DAGs: Contains,
// Len and Nth against graph.ForwardReachableFrom at every source,
// Unique against every graph.CountForwardPaths entry being at most 1,
// and on unique-path DAGs that matrix walks to every destination from
// every node that reaches it give refDraw's paths and, with the stream
// advanced by one draw per hop, its final RNG state, and that the
// slot walk writes the same paths. Sparse inputs give unique-path DAGs.
func FuzzReach(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(40)) // unique-path
	f.Add(int64(2), uint8(95), uint8(16)) // unique-path, multi-word rows
	f.Add(int64(5), uint8(80), uint8(16)) // unique-path, multi-word rows
	f.Add(int64(1), uint8(95), uint8(40)) // multi-path, multi-word rows
	f.Add(int64(4), uint8(5), uint8(255)) // multi-path
	f.Fuzz(func(t *testing.T, seed int64, n, density uint8) {
		rng := rand.New(rand.NewSource(seed))
		dagNodes := 2 + int(n)%96
		g, _, err := topo.Levelize("fuzz", dagNodes, topo.RandomDAG(rng, dagNodes, float64(density)/1024))
		if err != nil {
			t.Fatalf("Levelize rejected a random DAG: %v", err)
		}
		nn := g.NumNodes()
		if nn > maxFuzzNodes {
			return
		}
		reach, err := NewReach(g)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([][]int64, nn)
		unique := true
		for d := range counts {
			counts[d] = g.CountForwardPaths(graph.NodeID(d), satCap)
			unique = unique && slices.Max(counts[d]) <= 1
		}
		if reach.Unique() != unique {
			t.Fatalf("Unique() = %v, path counts say %v", reach.Unique(), unique)
		}
		for s := graph.NodeID(0); int(s) < nn; s++ {
			checkReach(t, g, reach, s)
		}
		if unique {
			for d := range counts {
				drawAll(t, g, reachDraw(reach), counts[d], graph.NodeID(d))
			}
			for s := graph.NodeID(0); int(s) < nn; s++ {
				for k := 0; k < reach.Len(s); k++ {
					checkWalk(t, g, reach, s, reach.Nth(s, k))
				}
			}
		}
	})
}
