package sim_test

import (
	"math/rand"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

func TestPeriodicFaultBlocksAndRecovers(t *testing.T) {
	// One packet on a ladder whose preferred first edge is down for the
	// first 3 steps: the packet must deflect around or wait it out, and
	// still deliver.
	g, err := topo.Ladder(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	p, err := workload.Random(g, rng, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	first := p.Set.Paths[0][0]
	e := sim.NewEngine(p, baselines.NewGreedy(), 2)
	e.Faults = sim.PeriodicFault(first, 0, 3)
	steps, done := e.Run(100000)
	if !done {
		t.Fatalf("did not complete under a 3-step outage (steps=%d)", steps)
	}
	if e.M.FaultBlocked == 0 {
		t.Error("outage never blocked anything")
	}
}

func TestHashFaultsDeterministicAndRateBound(t *testing.T) {
	f := sim.HashFaults(7, 0.1, 5)
	downs := 0
	total := 0
	for e := graph.EdgeID(0); e < 200; e++ {
		for tt := 0; tt < 100; tt += 5 {
			total++
			a, b := f(e, tt), f(e, tt)
			if a != b {
				t.Fatalf("not deterministic at (%d,%d)", e, tt)
			}
			if a {
				downs++
			}
		}
	}
	rate := float64(downs) / float64(total)
	if rate < 0.05 || rate > 0.2 {
		t.Errorf("empirical fault rate %.3f, want near 0.1", rate)
	}
	// Within a window the state is constant.
	if f(3, 10) != f(3, 14) {
		t.Error("fault state changed within a window")
	}
}

func TestGreedyDeliversUnderRandomFaults(t *testing.T) {
	g, err := topo.Butterfly(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p, err := workload.HotSpot(g, rng, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	healthy := sim.NewEngine(p, baselines.NewGreedy(), 4)
	hs, done := healthy.Run(1 << 20)
	if !done {
		t.Fatal("healthy run did not complete")
	}
	faulty := sim.NewEngine(p, baselines.NewGreedy(), 4)
	faulty.Faults = sim.HashFaults(9, 0.05, 8)
	fs, done := faulty.Run(1 << 20)
	if !done {
		t.Fatal("faulty run did not complete")
	}
	if fs < hs {
		t.Errorf("faults sped things up? healthy=%d faulty=%d", hs, fs)
	}
	if faulty.M.FaultBlocked == 0 {
		t.Error("no fault blocks recorded at 5% edge downtime")
	}
}

func TestComposeFaults(t *testing.T) {
	f := sim.ComposeFaults(sim.PeriodicFault(1, 0, 10), sim.PeriodicFault(2, 5, 15), nil)
	if !f(1, 3) || !f(2, 7) {
		t.Error("composition missed a member fault")
	}
	if f(1, 12) || f(3, 3) {
		t.Error("composition invented a fault")
	}
	if sim.NoFaults(1, 1) {
		t.Error("NoFaults is faulty")
	}
}

// TestEngineResetAfterFaultsMatchesFresh: a faulted run leaves no
// residue. An engine that ran to completion under HashFaults, had its
// fault model removed and was Reset, must reproduce a fresh healthy
// engine's run byte for byte — metrics, full router-visible trace,
// and zeroed fault counters.
func TestEngineResetAfterFaultsMatchesFresh(t *testing.T) {
	g, err := topo.Butterfly(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p, err := workload.HotSpot(g, rng, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rname, mk := range map[string]func() sim.Router{
		"greedy": func() sim.Router { return baselines.NewGreedy() },
		"frame": func() sim.Router {
			return core.NewFrame(core.ParamsPractical(p.C, p.L(), p.N(),
				core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3}))
		},
	} {
		t.Run(rname, func(t *testing.T) {
			wantM, wantTr := fullTrace(t, p, mk, 5)

			router, rec := wrapRecorder(mk())
			e := sim.NewEngine(p, router, 99)
			e.Faults = sim.HashFaults(9, 0.05, 8)
			if _, done := e.Run(1 << 20); !done {
				t.Fatal("faulted run did not complete")
			}
			if e.M.FaultBlocked == 0 {
				t.Fatal("faulted run recorded no blocks; the scenario is vacuous")
			}

			e.Faults = nil
			e.Reset(5)
			rec.log.Reset()
			if _, done := e.Run(100000); !done {
				t.Fatal("post-fault reset run did not complete")
			}
			tr := finalTrace(e, rec)
			if e.M.FaultBlocked != 0 || e.M.FaultStalls != 0 {
				t.Errorf("fault counters survived Reset: %+v", e.M)
			}
			if e.M != wantM {
				t.Errorf("metrics differ after faulted run + Reset:\n got %+v\nwant %+v", e.M, wantM)
			}
			if tr != wantTr {
				t.Error("trace differs after faulted run + Reset")
			}
		})
	}
}

func TestFrameDeliversUnderLightFaults(t *testing.T) {
	// The frame router was not designed for faults; under light
	// transient outages it must still deliver (self-healing retrace),
	// with invariant violations as the measurable cost.
	rng := rand.New(rand.NewSource(5))
	g, err := topo.Random(rng, 20, 3, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rng, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	params := core.ParamsPractical(p.C, p.L(), p.N(),
		core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	router := core.NewFrame(params)
	e := sim.NewEngine(p, router, 6)
	e.Faults = sim.HashFaults(11, 0.02, 10)
	steps, done := e.Run(16 * params.TotalSteps(p.L()))
	if !done {
		t.Fatalf("frame under faults did not complete (steps=%d)", steps)
	}
}
