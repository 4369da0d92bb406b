package hotpotato_test

import (
	"math/rand"
	"testing"

	"hotpotato"
)

func TestQuickstartFlow(t *testing.T) {
	net, err := hotpotato.Butterfly(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	prob, err := hotpotato.HotSpotWorkload(net, rng, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	params := hotpotato.PracticalParams(prob.C, prob.L(), prob.N())
	res := hotpotato.RouteFrame(prob, params, hotpotato.Options{Seed: 1, CheckInvariants: true})
	if !res.Done {
		t.Fatalf("frame did not complete: %s", res)
	}
	if res.Steps < hotpotato.LowerBound(prob) {
		t.Errorf("steps %d below the Ω(max(C,D)) lower bound %d", res.Steps, hotpotato.LowerBound(prob))
	}
	if !res.Invariants.Clean() {
		t.Errorf("invariants: %s", res.Invariants.String())
	}
}

func TestAllTopologiesThroughFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nets := []struct {
		name string
		f    func() (*hotpotato.Network, error)
	}{
		{"butterfly", func() (*hotpotato.Network, error) { return hotpotato.Butterfly(3) }},
		{"mesh", func() (*hotpotato.Network, error) { return hotpotato.Mesh(4, 4, hotpotato.CornerSE) }},
		{"hypercube", func() (*hotpotato.Network, error) { return hotpotato.Hypercube(4) }},
		{"omega", func() (*hotpotato.Network, error) { return hotpotato.Omega(5) }},
		{"benes", func() (*hotpotato.Network, error) { return hotpotato.Benes(4) }},
		{"array", func() (*hotpotato.Network, error) { return hotpotato.Array(3, 3) }},
		{"bintree", func() (*hotpotato.Network, error) { return hotpotato.BinaryTree(3) }},
		{"fattree", func() (*hotpotato.Network, error) { return hotpotato.FatTree(3, 2) }},
		{"linear", func() (*hotpotato.Network, error) { return hotpotato.Linear(8) }},
		{"ladder", func() (*hotpotato.Network, error) { return hotpotato.Ladder(5) }},
		{"complete", func() (*hotpotato.Network, error) { return hotpotato.CompleteLeveled(4, 3) }},
		{"random", func() (*hotpotato.Network, error) { return hotpotato.RandomLeveled(rng, 8, 2, 4, 0.5) }},
	}
	for _, n := range nets {
		g, err := n.f()
		if err != nil {
			t.Errorf("%s: %v", n.name, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", n.name, err)
		}
	}
}

func TestAllBaselinesThroughFacade(t *testing.T) {
	net, err := hotpotato.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	prob, err := hotpotato.HotSpotWorkload(net, rng, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []hotpotato.BaselineKind{
		hotpotato.GreedyHP, hotpotato.GreedyFTG, hotpotato.RandGreedyHP,
		hotpotato.SFFifo, hotpotato.SFRandomDelay, hotpotato.SFFarthestToGo,
	} {
		res, err := hotpotato.RouteBaseline(prob, kind, hotpotato.Options{Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !res.Done {
			t.Errorf("%s did not complete", kind)
		}
		if res.Steps < hotpotato.LowerBound(prob) {
			// SF schedulers may finish in exactly max(C,D); less is a bug.
			t.Errorf("%s: steps %d below lower bound %d", kind, res.Steps, hotpotato.LowerBound(prob))
		}
		hp := res.HP != nil
		sf := res.SF != nil
		if hp == sf {
			t.Errorf("%s: exactly one of HP/SF metrics must be set", kind)
		}
		// Greedy deflects only onto safe edges (Lemma 2.1).
		if kind == hotpotato.GreedyHP && res.HP.UnsafeDeflections() != 0 {
			t.Errorf("%s: %d unsafe deflections", kind, res.HP.UnsafeDeflections())
		}
		for i, lat := range res.PerPacketLatency {
			if lat < 0 {
				t.Errorf("%s: packet %d unabsorbed", kind, i)
			}
		}
		if res.String() == "" {
			t.Errorf("%s: empty String", kind)
		}
	}
	if _, err := hotpotato.RouteBaseline(prob, "bogus", hotpotato.Options{}); err == nil {
		t.Error("bogus baseline accepted")
	}
}

func TestCustomWorkloadAndBuilder(t *testing.T) {
	b := hotpotato.NewNetworkBuilder("custom")
	var prev hotpotato.NodeID = -1
	var nodes []hotpotato.NodeID
	for l := 0; l < 6; l++ {
		v := b.AddNode(l, "")
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		nodes = append(nodes, v)
		prev = v
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	prob, err := hotpotato.CustomWorkload("line", g, rng, []hotpotato.Request{
		{Src: nodes[0], Dst: nodes[5]},
		{Src: nodes[2], Dst: nodes[4]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if prob.N() != 2 || prob.D != 5 {
		t.Errorf("custom problem: %s", prob)
	}
	res, err := hotpotato.RouteBaseline(prob, hotpotato.GreedyHP, hotpotato.Options{Seed: 6})
	if err != nil || !res.Done {
		t.Fatalf("greedy on custom: %v %v", err, res)
	}
}

func TestMinCongestionWorkload(t *testing.T) {
	g, err := hotpotato.CompleteLeveled(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	src := g.Level(0)
	dst := g.Level(2)
	var reqs []hotpotato.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, hotpotato.Request{Src: src[i], Dst: dst[(i+1)%6]})
	}
	prob, err := hotpotato.MinCongestionWorkload("spread", g, rng, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if prob.C > 2 {
		t.Errorf("min-congestion selection gave C=%d on a complete network", prob.C)
	}
}

func TestParamsConstructors(t *testing.T) {
	paper := hotpotato.PaperParams(16, 32, 128)
	if err := paper.Validate(); err != nil {
		t.Errorf("paper params: %v", err)
	}
	prac := hotpotato.PracticalParams(16, 32, 128)
	if err := prac.Validate(); err != nil {
		t.Errorf("practical params: %v", err)
	}
	if paper.W <= prac.W {
		t.Errorf("paper W (%d) should dwarf practical W (%d)", paper.W, prac.W)
	}
	custom := hotpotato.PracticalParamsWith(16, 32, 128, hotpotato.PracticalConfig{RoundFactor: 7})
	if custom.W != 7*custom.M {
		t.Errorf("custom W = %d", custom.W)
	}
}

func TestProblemFromPathsRejectsBadSets(t *testing.T) {
	g, err := hotpotato.Linear(4)
	if err != nil {
		t.Fatal(err)
	}
	// Two packets from the same source violate many-to-one.
	set := &hotpotato.PathSet{G: g, Paths: []hotpotato.Path{{0, 1}, {0}}}
	if _, err := hotpotato.ProblemFromPaths("dup", g, set); err == nil {
		t.Error("duplicate-source set accepted")
	}
}
