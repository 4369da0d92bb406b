package paths

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// TestSelect64 checks the broadword select against clearing the lowest
// set bits one by one, on words of every density and at every rank.
func TestSelect64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []uint64{1, 1 << 63, ^uint64(0), 0x8000000000000001, 0xff00, 0x0101010101010101}
	for i := 0; i < 2000; i++ {
		x := rng.Uint64()
		for j := rng.Intn(4); j > 0; j-- {
			x &= rng.Uint64() // sparser
		}
		if x != 0 {
			words = append(words, x)
		}
	}
	for _, x := range words {
		y := x
		for k := 0; k < bits.OnesCount64(x); k++ {
			if got, want := select64(x, k), bits.TrailingZeros64(y); got != want {
				t.Fatalf("select64(%#x, %d) = %d, want %d", x, k, got, want)
			}
			y &= y - 1
		}
	}
}

// TestReachBudget checks the byte budget's edge: a matrix that takes
// exactly the budget is built, one byte less is refused with an error
// naming both sizes. Under MaxReachBytes butterfly(11) is the largest
// butterfly that fits.
func TestReachBudget(t *testing.T) {
	g := mustTopo(t)(topo.Butterfly(5))
	size := reachBytes(g.NumNodes())
	if size != 192*(3*10+4) {
		t.Fatalf("butterfly(5) matrix takes %d bytes", size)
	}
	if _, err := newReach(g, size); err != nil {
		t.Fatalf("budget %d: %v", size, err)
	}
	_, err := newReach(g, size-1)
	if err == nil {
		t.Fatalf("budget %d: accepted a %d-byte matrix", size-1, size)
	}
	for _, want := range []string{"192 nodes", fmt.Sprintf("%d bytes", size), fmt.Sprintf("%d-byte budget", size-1)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	bfly := func(k int) int { return reachBytes((k + 1) << k) }
	if bfly(11) > MaxReachBytes || bfly(12) <= MaxReachBytes {
		t.Fatalf("butterfly(11) takes %d bytes, butterfly(12) %d, budget %d", bfly(11), bfly(12), MaxReachBytes)
	}
}

// TestReachParallelEdges checks that two parallel edges make a network
// multi-path — each is its own forward path — while reach is unchanged.
func TestReachParallelEdges(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		b := graph.NewBuilder("parallel")
		lo, mid, hi := b.AddNode(0, ""), b.AddNode(1, ""), b.AddNode(2, "")
		b.AddEdge(lo, mid)
		b.AddEdge(mid, hi)
		if parallel {
			b.AddEdge(mid, hi)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReach(g)
		if err != nil {
			t.Fatal(err)
		}
		if r.Unique() == parallel {
			t.Fatalf("parallel=%v: Unique() = %v", parallel, r.Unique())
		}
		for s := graph.NodeID(0); s < 3; s++ {
			checkReach(t, g, r, s)
		}
	}
}

// TestWalkSlotsMatchesAppendPath checks the slot walk against
// AppendPath on every pair of butterfly(1..8) and Omega(3..6): the same
// edges, each as its forward transmission slot.
func TestWalkSlotsMatchesAppendPath(t *testing.T) {
	var nets []*graph.Leveled
	for k := 1; k <= 8; k++ {
		nets = append(nets, mustTopo(t)(topo.Butterfly(k)))
	}
	for k := 3; k <= 6; k++ {
		nets = append(nets, mustTopo(t)(topo.Omega(k)))
	}
	for _, g := range nets {
		r, err := NewReach(g)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Unique() {
			t.Fatalf("%s is not unique-path", g.Name())
		}
		for s := graph.NodeID(0); int(s) < g.NumNodes(); s++ {
			for k := 0; k < r.Len(s); k++ {
				checkWalk(t, g, r, s, r.Nth(s, k))
			}
		}
	}
}

// checkWalk requires WalkSlots(src, dst) to write AppendPath's path as
// forward slots.
func checkWalk(t *testing.T, g *graph.Leveled, r *Reach, src, dst graph.NodeID) {
	t.Helper()
	want, err := r.AppendPath(src, dst, nil)
	if err != nil {
		t.Fatalf("%s %d→%d: %v", g.Name(), src, dst, err)
	}
	got := make([]int32, g.LevelOf(dst)-g.LevelOf(src))
	r.WalkSlots(src, dst, got)
	if len(got) != len(want) {
		t.Fatalf("%s %d→%d: walk of %d slots, AppendPath %v", g.Name(), src, dst, len(got), want)
	}
	for i, ed := range want {
		if got[i] != int32(ed)<<1|int32(graph.Forward) {
			t.Fatalf("%s %d→%d: walk %v, AppendPath %v", g.Name(), src, dst, got, want)
		}
	}
}
