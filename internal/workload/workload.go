// Package workload generates routing problems — sets of packets with
// preselected forward paths — over leveled networks. It covers the
// paper's problem class (many-to-one: each node sources at most one
// packet, destinations arbitrary) with generators of controlled
// congestion C and dilation D.
package workload

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/topo"
)

// Problem is a complete routing problem: a network plus a preselected
// path per packet.
type Problem struct {
	Name string
	G    *graph.Leveled
	Set  *paths.PathSet
	// C and D are cached congestion and dilation of Set.
	C, D int
}

// N returns the number of packets.
func (p *Problem) N() int { return len(p.Set.Paths) }

// L returns the network depth.
func (p *Problem) L() int { return p.G.Depth() }

// finish computes cached metrics and validates the problem.
func finish(name string, g *graph.Leveled, set *paths.PathSet) (*Problem, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if err := set.CheckOnePacketPerSource(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &Problem{
		Name: name,
		G:    g,
		Set:  set,
		C:    set.Congestion(),
		D:    set.Dilation(),
	}, nil
}

// String summarizes the problem.
func (p *Problem) String() string {
	return fmt.Sprintf("%s on %s: N=%d C=%d D=%d L=%d", p.Name, p.G.Name(), p.N(), p.C, p.D, p.L())
}

// Random draws a many-to-one problem: each node at a level below the
// top is independently a source with probability density (clamped so at
// most one packet per node), destination drawn uniformly among
// forward-reachable nodes at strictly higher levels. Paths are sampled
// uniformly at random among forward paths.
func Random(g *graph.Leveled, rng *rand.Rand, density float64) (*Problem, error) {
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("workload: density must be in (0,1], got %g", density)
	}
	var reqs []paths.Request
	for id := graph.NodeID(0); int(id) < g.NumNodes(); id++ {
		n := g.Node(id)
		if n.Level >= g.Depth() || len(n.Up) == 0 {
			continue
		}
		if rng.Float64() >= density {
			continue
		}
		reach := g.ForwardReachableFrom(id)
		var cands []graph.NodeID
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			if w != id && reach[w] {
				cands = append(cands, w)
			}
		}
		if len(cands) == 0 {
			continue
		}
		reqs = append(reqs, paths.Request{Src: id, Dst: cands[rng.Intn(len(cands))]})
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("workload: Random produced no packets (density %g too low?)", density)
	}
	set, err := paths.SelectRandom(g, rng, reqs)
	if err != nil {
		return nil, err
	}
	return finish(fmt.Sprintf("random(d=%.2f)", density), g, set)
}

// HotSpot routes `count` packets from distinct random sources to a
// small set of `spots` destination nodes at the top levels, driving
// congestion up while keeping D near L. This is the workhorse for
// sweeping C at fixed L (experiment E1).
func HotSpot(g *graph.Leveled, rng *rand.Rand, count, spots int) (*Problem, error) {
	if count < 1 || spots < 1 {
		return nil, fmt.Errorf("workload: HotSpot needs count,spots >= 1, got %d,%d", count, spots)
	}
	top := g.Level(g.Depth())
	if spots > len(top) {
		spots = len(top)
	}
	spotIDs := make([]graph.NodeID, spots)
	perm := rng.Perm(len(top))
	for i := 0; i < spots; i++ {
		spotIDs[i] = top[perm[i]]
	}
	// Collect candidate sources: nodes that can reach at least one spot.
	reach := make([][]bool, spots)
	for i, s := range spotIDs {
		reach[i] = g.Reachable(s)
	}
	var cands []graph.NodeID
	for id := graph.NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.Node(id).Level == g.Depth() {
			continue
		}
		for i := range spotIDs {
			if reach[i][id] {
				cands = append(cands, id)
				break
			}
		}
	}
	if count > len(cands) {
		count = len(cands)
	}
	order := rng.Perm(len(cands))
	reqs := make([]paths.Request, 0, count)
	ok := make([]graph.NodeID, 0, spots)
	for _, ci := range order {
		if len(reqs) == count {
			break
		}
		src := cands[ci]
		// Pick a random reachable spot for this source.
		ok = ok[:0]
		for i, s := range spotIDs {
			if reach[i][src] {
				ok = append(ok, s)
			}
		}
		reqs = append(reqs, paths.Request{Src: src, Dst: ok[rng.Intn(len(ok))]})
	}
	set, err := paths.SelectRandom(g, rng, reqs)
	if err != nil {
		return nil, err
	}
	return finish(fmt.Sprintf("hotspot(n=%d,s=%d)", len(reqs), spots), g, set)
}

// FullThroughput sends one packet from every level-0 node to a uniform
// random top-level node (a permutation-flavored workload on networks
// like the butterfly where |level 0| == |level L|).
func FullThroughput(g *graph.Leveled, rng *rand.Rand) (*Problem, error) {
	bottom, top := g.Level(0), g.Level(g.Depth())
	perm := rng.Perm(len(top))
	reqs := make([]paths.Request, 0, len(bottom))
	for i, src := range bottom {
		dst := top[perm[i%len(top)]]
		reqs = append(reqs, paths.Request{Src: src, Dst: dst})
	}
	set, err := paths.SelectRandom(g, rng, reqs)
	if err != nil {
		return nil, err
	}
	return finish("fullthroughput", g, set)
}

// ButterflyTranspose routes, on a k-dimensional butterfly, one packet
// per row w at level 0 to row transpose(w) at level k, where transpose
// swaps the high and low halves of the bit word — a classic
// congestion-inducing permutation for bit-fixing paths.
func ButterflyTranspose(g *graph.Leveled, k int) (*Problem, error) {
	if k%2 != 0 {
		return nil, fmt.Errorf("workload: ButterflyTranspose needs even k, got %d", k)
	}
	rows := 1 << k
	half := k / 2
	ps := make([]graph.Path, 0, rows)
	for w := 0; w < rows; w++ {
		hi := w >> half
		lo := w & (1<<half - 1)
		dst := lo<<half | hi
		p, err := topo.ButterflyBitFixPath(g, k, w, dst)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	set := paths.NewPathSet(g, ps)
	return finish("bfly-transpose", g, set)
}

// ButterflyBitReversal routes row w to row reverse(w) with bit-fixing
// paths; the bit-reversal permutation is the canonical worst case for
// oblivious routing on the butterfly, with C = Θ(sqrt(rows)).
func ButterflyBitReversal(g *graph.Leveled, k int) (*Problem, error) {
	rows := 1 << k
	ps := make([]graph.Path, 0, rows)
	for w := 0; w < rows; w++ {
		dst := 0
		for b := 0; b < k; b++ {
			if w&(1<<b) != 0 {
				dst |= 1 << (k - 1 - b)
			}
		}
		p, err := topo.ButterflyBitFixPath(g, k, w, dst)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	set := paths.NewPathSet(g, ps)
	return finish("bfly-bitreversal", g, set)
}

// MeshHard builds the Section-5 application instance: an n x n mesh
// (CornerNW) with congestion and dilation Θ(n). Packets start at
// column 0 and end at column n-1, with each of the n rows sourcing one
// packet; all paths are routed through a single shared middle row,
// giving C = n on that row's edges and D <= 2n. This mirrors the
// C, D = Θ(n) path sets the paper cites from Leighton et al. [16].
func MeshHard(n int) (*Problem, error) {
	if n < 2 {
		return nil, fmt.Errorf("workload: MeshHard needs n >= 2, got %d", n)
	}
	g, err := topo.Mesh(n, n, topo.CornerNW)
	if err != nil {
		return nil, err
	}
	mid := n / 2
	ps := make([]graph.Path, 0, n)
	for r := 0; r < n; r++ {
		// Packet r: (r,0) right to (r,mid), down column mid to (n-1,mid),
		// right to (n-1,n-1). Every hop increases level(i,j)=i+j by one,
		// so the path is valid; the lower half of column mid carries all
		// n packets (C = Θ(n)) and the longest path has 2(n-1) edges.
		var p graph.Path
		cols := n
		for j := 0; j < mid; j++ {
			p = append(p, edgeOrPanic(g, topo.MeshNode(cols, r, j), topo.MeshNode(cols, r, j+1)))
		}
		for i := r; i < n-1; i++ {
			p = append(p, edgeOrPanic(g, topo.MeshNode(cols, i, mid), topo.MeshNode(cols, i+1, mid)))
		}
		for j := mid; j < n-1; j++ {
			p = append(p, edgeOrPanic(g, topo.MeshNode(cols, n-1, j), topo.MeshNode(cols, n-1, j+1)))
		}
		ps = append(ps, p)
	}
	set := paths.NewPathSet(g, ps)
	return finish(fmt.Sprintf("mesh-hard(%d)", n), g, set)
}

func edgeOrPanic(g *graph.Leveled, u, w graph.NodeID) graph.EdgeID {
	e := g.EdgeBetween(u, w)
	if e == graph.NoEdge {
		panic(fmt.Sprintf("workload: missing mesh edge %d-%d", u, w))
	}
	return e
}

// SingleFile routes k packets down a linear array from staggered
// sources to the final node: C = D-ish worst case on the thinnest
// possible network. Useful for deterministic engine tests.
func SingleFile(g *graph.Leveled, k int) (*Problem, error) {
	if g.MaxLevelWidth() != 1 {
		return nil, fmt.Errorf("workload: SingleFile needs a linear array")
	}
	if k < 1 || k > g.Depth() {
		return nil, fmt.Errorf("workload: SingleFile needs 1 <= k <= %d, got %d", g.Depth(), k)
	}
	ps := make([]graph.Path, 0, k)
	for i := 0; i < k; i++ {
		var p graph.Path
		for l := i; l < g.Depth(); l++ {
			p = append(p, edgeOrPanic(g, g.Level(l)[0], g.Level(l + 1)[0]))
		}
		ps = append(ps, p)
	}
	set := paths.NewPathSet(g, ps)
	return finish(fmt.Sprintf("singlefile(%d)", k), g, set)
}
