package core

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// TestClockStepsLikeSchedule walks the step clock from step 0 across
// several phases and checks every position against the Schedule's own
// divisions.
func TestClockStepsLikeSchedule(t *testing.T) {
	for _, p := range []Params{
		{NumSets: 1, M: 4, W: 2, Q: 0.1},
		{NumSets: 3, M: 5, W: 7, Q: 0.1},
		{NumSets: 2, M: 16, W: 64, Q: 0.1},
	} {
		s := Schedule{p}
		c := s.clockAt(0)
		for step := 0; step < 4*p.StepsPerPhase()+3; step++ {
			if c != s.clockAt(step) {
				t.Fatalf("%v step %d: stepped clock %+v, direct %+v", p, step, c, s.clockAt(step))
			}
			if c.phase != s.PhaseOf(step) || c.round != s.RoundOf(step) || c.inRound != s.StepInRound(step) {
				t.Fatalf("%v step %d: clock %+v disagrees with PhaseOf/RoundOf/StepInRound", p, step, c)
			}
			if c.roundEnd(s) != s.IsRoundEnd(step) || c.phaseEnd(s) != s.IsPhaseEnd(step) {
				t.Fatalf("%v step %d: clock ends %v/%v, schedule %v/%v", p, step,
					c.roundEnd(s), c.phaseEnd(s), s.IsRoundEnd(step), s.IsPhaseEnd(step))
			}
			c = s.next(c)
		}
	}
}

// endCounter forwards to a frame router and counts EndStep calls — the
// steps the engine executed rather than fast-forwarded — and the ones
// after which the step clock did not describe the next step.
type endCounter struct {
	*Frame
	ends, stale int
}

func (c *endCounter) EndStep(t int, e *sim.Engine) {
	c.ends++
	c.Frame.EndStep(t, e)
	if c.clk != c.sched.clockAt(t+1) {
		c.stale++
	}
}

// clockRun is what one run commits: its counters and each packet's
// timing, moves and deflections.
type clockRun struct {
	steps, executed int
	stale           int
	done            bool
	engine          sim.Metrics
	router          Stats
	packets         []packetRecord
}

type packetRecord struct {
	inject, absorb, forward, backward, deflections int
	cur                                            int32
}

func runCounted(r *endCounter, e *sim.Engine, seed int64, stepped bool) clockRun {
	e.Reset(seed)
	if stepped {
		e.AddObserver(func(int, *sim.Engine) {})
	}
	r.ends, r.stale = 0, 0
	steps, done := e.Run(4 * r.P.TotalSteps(e.G.Depth()))
	out := clockRun{steps: steps, executed: r.ends, stale: r.stale, done: done, engine: e.M, router: r.S}
	for _, pk := range e.Packets {
		out.packets = append(out.packets, packetRecord{pk.InjectTime, pk.AbsorbTime,
			pk.ForwardMoves, pk.BackwardMoves, pk.Deflections, int32(pk.Cur)})
	}
	return out
}

// TestClockAcrossIdleSkip runs the frame router on staggered problems —
// frontier-sets injected phases apart, so the engine fast-forwards
// between them and the first step after each skip finds the step clock
// behind — with and without idle fast-forward (an attached Observer
// turns it off). Both runs must commit identical traces and Stats, the
// plain run must really have skipped steps, and every EndStep must
// leave the clock on the next step, so the division fallback serves
// only the first step after a skip.
func TestClockAcrossIdleSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bfly, err := topo.Butterfly(6)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := workload.HotSpot(bfly, rng, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	wg, err := topo.Random(rng, 20, 3, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	waves, err := workload.Waves(wg, rng, 4, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	wparams := Params{NumSets: 8, M: 6, W: 15, Q: 0.05}
	cases := []struct {
		name   string
		p      *workload.Problem
		router *Frame
	}{
		// Many sets for few packets: long idle gaps between injections.
		{"hotspot", hot, NewFrame(Params{NumSets: 12, M: 5, W: 11, Q: 0.1})},
		{"waves", waves.Problem, NewFrameWithSets(wparams, waves.SetAssignment(rng, 2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &endCounter{Frame: tc.router}
			e := sim.NewEngine(tc.p, r, 0)
			for seed := int64(1); seed <= 4; seed++ {
				skipped := runCounted(r, e, seed, false)
				stepped := runCounted(r, e, seed, true)
				if !stepped.done || stepped.executed != stepped.steps {
					t.Fatalf("seed %d: stepped run done=%v executed %d of %d steps", seed, stepped.done, stepped.executed, stepped.steps)
				}
				if skipped.stale+stepped.stale != 0 {
					t.Fatalf("seed %d: %d EndSteps left the clock off the next step", seed, skipped.stale+stepped.stale)
				}
				if skipped.executed >= skipped.steps {
					t.Fatalf("seed %d: plain run executed all %d steps; nothing was fast-forwarded", seed, skipped.steps)
				}
				switch {
				case skipped.steps != stepped.steps || skipped.done != stepped.done:
					t.Errorf("seed %d: steps/done %d/%v, stepped %d/%v", seed, skipped.steps, skipped.done, stepped.steps, stepped.done)
				case skipped.engine != stepped.engine:
					t.Errorf("seed %d: engine metrics\n got %+v\nwant %+v", seed, skipped.engine, stepped.engine)
				case skipped.router != stepped.router:
					t.Errorf("seed %d: router stats\n got %+v\nwant %+v", seed, skipped.router, stepped.router)
				case !slices.Equal(skipped.packets, stepped.packets):
					t.Errorf("seed %d: per-packet records differ", seed)
				}
			}
		})
	}
}
