package paths

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// selectRandomRef is SelectRandom as a per-request RandomForwardPath
// loop: one fresh counting pass per packet, no table reuse.
func selectRandomRef(g *graph.Leveled, rng *rand.Rand, reqs []Request) (*PathSet, error) {
	ps := make([]graph.Path, len(reqs))
	for i, r := range reqs {
		p, err := RandomForwardPath(g, rng, r.Src, r.Dst)
		if err != nil {
			return nil, fmt.Errorf("paths: request %d: %w", i, err)
		}
		ps[i] = p
	}
	return NewPathSet(g, ps), nil
}

// selectValiantRef is SelectValiant with per-leg RandomForwardPath
// draws and reachability from graph.Reachable.
func selectValiantRef(g *graph.Leveled, rng *rand.Rand, reqs []Request) (*PathSet, error) {
	ps := make([]graph.Path, len(reqs))
	for i, r := range reqs {
		ls, ld := g.Node(r.Src).Level, g.Node(r.Dst).Level
		if ld <= ls {
			return nil, fmt.Errorf("paths: request %d: dst level %d not above src level %d", i, ld, ls)
		}
		midLevel := (ls + ld) / 2
		fromSrc := g.ForwardReachableFrom(r.Src)
		toDst := g.Reachable(r.Dst)
		var mids []graph.NodeID
		for _, v := range g.Level(midLevel) {
			if fromSrc[v] && toDst[v] {
				mids = append(mids, v)
			}
		}
		if len(mids) == 0 {
			return nil, fmt.Errorf("paths: request %d: no usable intermediate at level %d", i, midLevel)
		}
		mid := mids[rng.Intn(len(mids))]
		var p graph.Path
		if mid != r.Src {
			p1, err := RandomForwardPath(g, rng, r.Src, mid)
			if err != nil {
				return nil, fmt.Errorf("paths: request %d: %w", i, err)
			}
			p = append(p, p1...)
		}
		if mid != r.Dst {
			p2, err := RandomForwardPath(g, rng, mid, r.Dst)
			if err != nil {
				return nil, fmt.Errorf("paths: request %d: %w", i, err)
			}
			p = append(p, p2...)
		}
		ps[i] = p
	}
	return NewPathSet(g, ps), nil
}

type selectFunc func(*graph.Leveled, *rand.Rand, []Request) (*PathSet, error)

// diffSelect runs got and want from the same seed and requires the same
// paths (or the same error) and the same RNG state afterwards.
func diffSelect(t *testing.T, name string, g *graph.Leveled, reqs []Request, got, want selectFunc) {
	t.Helper()
	rg, rw := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	sg, errG := got(g, rg, reqs)
	sw, errW := want(g, rw, reqs)
	if fmt.Sprint(errG) != fmt.Sprint(errW) {
		t.Fatalf("%s on %s: error %v, reference %v", name, g.Name(), errG, errW)
	}
	if errW == nil {
		for i := range sw.Paths {
			if !slices.Equal(sg.Paths[i], sw.Paths[i]) {
				t.Fatalf("%s on %s: path %d = %v, reference %v", name, g.Name(), i, sg.Paths[i], sw.Paths[i])
			}
		}
	}
	if a, b := rg.Int63(), rw.Int63(); a != b {
		t.Fatalf("%s on %s: next rng draw %d, reference %d", name, g.Name(), a, b)
	}
}

// spreadRequests draws one request per sampled source with a uniform
// forward-reachable destination; hot restricts destinations to a few
// top-level nodes, so tables are reused across packets.
func spreadRequests(g *graph.Leveled, rng *rand.Rand, hot bool) []Request {
	top := g.Level(g.Depth())
	spots := top[:min(3, len(top))]
	var reqs []Request
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if g.LevelOf(v) == g.Depth() || rng.Intn(3) == 0 {
			continue
		}
		reach := g.ForwardReachableFrom(v)
		var cands []graph.NodeID
		for w := graph.NodeID(0); int(w) < g.NumNodes(); w++ {
			if w != v && reach[w] && (!hot || slices.Contains(spots, w)) {
				cands = append(cands, w)
			}
		}
		if len(cands) > 0 {
			reqs = append(reqs, Request{Src: v, Dst: cands[rng.Intn(len(cands))]})
		}
	}
	return reqs
}

func diffTopologies(t *testing.T) []*graph.Leveled {
	must := mustTopo(t)
	rng := rand.New(rand.NewSource(3))
	dag, _, err := topo.Levelize("dag", 48, topo.RandomDAG(rng, 48, 0.12))
	return []*graph.Leveled{
		must(topo.Butterfly(5)),
		must(topo.Benes(3)),
		must(topo.Mesh(7, 6, topo.CornerNW)),
		must(dag, err),
	}
}

func TestSelectMatchesPerRequestReference(t *testing.T) {
	for _, g := range diffTopologies(t) {
		rng := rand.New(rand.NewSource(5))
		for _, hot := range []bool{false, true} {
			reqs := spreadRequests(g, rng, hot)
			if len(reqs) == 0 {
				t.Fatalf("%s: no requests", g.Name())
			}
			diffSelect(t, "SelectRandom", g, reqs, SelectRandom, selectRandomRef)
			diffSelect(t, "SelectValiant", g, reqs, SelectValiant, selectValiantRef)
		}
	}
}

// TestSelectPastCacheCap routes 1024 butterfly(10) sources to 1024
// distinct top-level nodes through a table whose byte budget keeps only
// 96 bit rows, then revisits early destinations. Draws must match the
// per-request reference, and the table must show the premise held: the
// budget is full and every destination past the first 96 kept no row,
// so each draw to one recounted it into the scratch.
func TestSelectPastCacheCap(t *testing.T) {
	g := mustTopo(t)(topo.Butterfly(10))
	bottom, top := g.Level(0), g.Level(g.Depth())
	const keptRows = 96
	budget := keptRows * 8 * ((g.NumNodes() + 63) / 64)
	perm := rand.New(rand.NewSource(8)).Perm(len(top))
	reqs := make([]Request, len(bottom))
	for i, s := range bottom {
		reqs[i] = Request{Src: s, Dst: top[perm[i]]}
	}
	// Revisit early destinations after the budget has run out.
	reqs = append(reqs, reqs[:64]...)
	for _, c := range []struct {
		name string
		sel  func(*CountTable, *rand.Rand, []Request) (*PathSet, error)
		ref  selectFunc
	}{
		{"SelectRandom", selectRandom, selectRandomRef},
		{"SelectValiant", selectValiant, selectValiantRef},
	} {
		ct := newCountTable(g, budget)
		sel := func(_ *graph.Leveled, rng *rand.Rand, reqs []Request) (*PathSet, error) {
			return c.sel(ct, rng, reqs)
		}
		diffSelect(t, c.name, g, reqs, sel, c.ref)
		if ct.used != budget {
			t.Errorf("%s: kept rows take %d bytes, want the whole %d-byte budget", c.name, ct.used, budget)
		}
		for _, r := range reqs[keptRows:len(bottom)] {
			if ct.rowOf(r.Dst).width != 0 {
				t.Fatalf("%s: destination %d kept a row past the budget", c.name, r.Dst)
			}
		}
	}
}

func TestSelectErrorsMatchReference(t *testing.T) {
	must := mustTopo(t)
	mesh := must(topo.Mesh(4, 4, topo.CornerNW))
	bfly := must(topo.Butterfly(3))
	cases := []struct {
		name string
		g    *graph.Leveled
		bad  Request
	}{
		{"src == dst", mesh, Request{Src: topo.MeshNode(4, 1, 1), Dst: topo.MeshNode(4, 1, 1)}},
		{"dst below src", mesh, Request{Src: topo.MeshNode(4, 2, 2), Dst: topo.MeshNode(4, 0, 1)}},
		// (0,3) is a level above (1,1) but lies in a row above it.
		{"unreachable mesh dst", mesh, Request{Src: topo.MeshNode(4, 1, 1), Dst: topo.MeshNode(4, 0, 3)}},
		// Level 1 has fixed the top row bit; row 7 differs from row 0 in it.
		{"unreachable butterfly dst", bfly, Request{Src: topo.ButterflyNode(bfly, 3, 0, 1), Dst: topo.ButterflyNode(bfly, 3, 7, 3)}},
	}
	for _, c := range cases {
		ok := Request{Src: c.g.Level(0)[0], Dst: c.g.Level(c.g.Depth())[0]}
		reqs := []Request{ok, ok, c.bad, ok}
		diffSelect(t, "SelectRandom/"+c.name, c.g, reqs, SelectRandom, selectRandomRef)
		diffSelect(t, "SelectValiant/"+c.name, c.g, reqs, SelectValiant, selectValiantRef)
		if _, err := SelectRandom(c.g, rand.New(rand.NewSource(1)), reqs); err == nil {
			t.Errorf("%s: SelectRandom accepted %+v", c.name, c.bad)
		}
	}
}
