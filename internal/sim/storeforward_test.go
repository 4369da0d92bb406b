package sim_test

import (
	"math/rand"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

func TestSFSinglePacket(t *testing.T) {
	p := linearProblem(t, 5, 1)
	e := sim.NewSFEngine(p, baselines.NewFIFO(), 1)
	steps, done := e.Run(100)
	if !done {
		t.Fatal("run did not complete")
	}
	if steps != 4 {
		t.Errorf("steps = %d, want 4", steps)
	}
	if e.M.QueueDelay != 0 || e.M.MaxQueueLen != 1 {
		t.Errorf("metrics = %+v", e.M)
	}
	if e.Packets[0].Latency() != 4 {
		t.Errorf("latency = %d", e.Packets[0].Latency())
	}
}

func TestSFMergeQueues(t *testing.T) {
	p := mergeProblem(t)
	e := sim.NewSFEngine(p, baselines.NewFIFO(), 2)
	steps, done := e.Run(100)
	if !done {
		t.Fatal("run did not complete")
	}
	// Both packets reach m at t=1; the shared edge serializes them:
	// finish at 2 and 3.
	if steps != 3 {
		t.Errorf("steps = %d, want 3", steps)
	}
	if e.M.MaxQueueLen != 2 {
		t.Errorf("MaxQueueLen = %d, want 2", e.M.MaxQueueLen)
	}
	if e.M.QueueDelay != 1 {
		t.Errorf("QueueDelay = %d, want 1", e.M.QueueDelay)
	}
}

func TestSFMakespanLowerBound(t *testing.T) {
	// Store-and-forward can never beat max(C over a single edge chain, D).
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p, err := workload.HotSpot(g, rng, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewSFEngine(p, baselines.NewFIFO(), 4)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	if steps < p.C {
		t.Errorf("steps %d < C %d; a single edge carries C packets", steps, p.C)
	}
	if steps < p.D {
		t.Errorf("steps %d < D %d", steps, p.D)
	}
}

func TestSFRandomDelay(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	p, err := workload.HotSpot(g, rng, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := baselines.NewRandomDelay(p.C, 1)
	e := sim.NewSFEngine(p, s, 6)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	// The delay window stretches the start but bounds queueing; the
	// makespan still cannot beat C.
	if steps < p.C {
		t.Errorf("steps %d < C %d", steps, p.C)
	}
	// Delays must be inside the window.
	for i := range e.Packets {
		if it := e.Packets[i].InjectTime; it < 0 || it >= p.C+p.D+p.C {
			t.Errorf("packet %d injected at %d, outside window", i, it)
		}
	}
}

func TestSFFarthestFirst(t *testing.T) {
	p := mergeProblem(t)
	e := sim.NewSFEngine(p, baselines.NewFarthestFirst(), 7)
	if _, done := e.Run(100); !done {
		t.Fatal("run did not complete")
	}
	// Equal path lengths here; mostly checks the scheduler wiring.
	if e.M.Absorbed != 2 {
		t.Errorf("absorbed = %d", e.M.Absorbed)
	}
}

func TestSFDeterminism(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	p, err := workload.HotSpot(g, rng, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func() int {
		e := sim.NewSFEngine(p, baselines.NewRandomDelay(p.C, 1), 99)
		steps, done := e.Run(100000)
		if !done {
			t.Fatal("run did not complete")
		}
		return steps
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %d vs %d", a, b)
	}
}

func TestSFPacketsFollowPreselectedExactly(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	p, err := workload.FullThroughput(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewSFEngine(p, baselines.NewFIFO(), 10)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	for i := range e.Packets {
		pkt := &e.Packets[i]
		if pkt.ForwardMoves != len(pkt.Preselected) {
			t.Errorf("packet %d made %d moves, path length %d", i, pkt.ForwardMoves, len(pkt.Preselected))
		}
		if pkt.BackwardMoves != 0 || pkt.Deflections != 0 {
			t.Errorf("packet %d: store-and-forward must not deflect", i)
		}
	}
}

func TestSFMaxStepsBudget(t *testing.T) {
	p := linearProblem(t, 10, 1)
	e := sim.NewSFEngine(p, baselines.NewFIFO(), 11)
	steps, done := e.Run(2)
	if done || steps != 2 {
		t.Errorf("Run(2) = (%d,%v)", steps, done)
	}
	steps, done = e.Run(100)
	if !done || steps != 9 {
		t.Errorf("resume = (%d,%v), want (9,true)", steps, done)
	}
	if e.Now() != 9 {
		t.Errorf("Now = %d", e.Now())
	}
}

// TestSFEngineResetMatchesFresh mirrors the reset test for the
// store-and-forward engine, including the random-delay scheduler whose
// initial delays are re-drawn from the reseeded engine RNG.
func TestSFEngineResetMatchesFresh(t *testing.T) {
	for pname, p := range matrixProblems(t) {
		t.Run(pname, func(t *testing.T) {
			for _, mk := range []func() sim.Scheduler{
				func() sim.Scheduler { return baselines.NewFIFO() },
				func() sim.Scheduler { return baselines.NewRandomDelay(p.C, 1) },
			} {
				fresh := sim.NewSFEngine(p, mk(), 5)
				fresh.Run(100000)

				reused := sim.NewSFEngine(p, mk(), 99)
				reused.Run(100000)
				reused.Reset(7)
				for i := 0; i < 3 && !reused.Done(); i++ {
					reused.Step()
				}
				reused.Reset(5)
				reused.Run(100000)

				if fresh.M != reused.M {
					t.Errorf("SF metrics differ after Reset:\n got %+v\nwant %+v", reused.M, fresh.M)
				}
				for i := range fresh.Packets {
					a, b := &fresh.Packets[i], &reused.Packets[i]
					if a.InjectTime != b.InjectTime || a.AbsorbTime != b.AbsorbTime ||
						a.ForwardMoves != b.ForwardMoves {
						t.Errorf("SF packet %d differs after Reset: %+v vs %+v", i, a, b)
					}
				}
			}
		})
	}
}
