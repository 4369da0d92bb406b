package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"hotpotato/internal/faults"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// hotSpotCorpus is the frame-batch corpus: 1024-packet hot-spot problems
// on a depth-10 butterfly (8 spots, so C far exceeds L = 10), the first
// five drawn from seed 1. Built once per test binary.
var hotSpotCorpus = sync.OnceValues(func() ([]*workload.Problem, error) {
	g, err := topo.Butterfly(10)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	ps := make([]*workload.Problem, 5)
	for i := range ps {
		if ps[i], err = workload.HotSpot(g, rng, 1024, 8); err != nil {
			return nil, err
		}
	}
	return ps, nil
})

func corpus(tb testing.TB) []*workload.Problem {
	tb.Helper()
	ps, err := hotSpotCorpus()
	if err != nil {
		tb.Fatal(err)
	}
	return ps
}

// runOutcome is everything a run commits: the result's counters and
// latency summaries plus each packet's timing and move counts.
type runOutcome struct {
	steps           int
	done            bool
	engine          sim.Metrics
	router          Stats
	wait, transit   stats.Summary
	inject, absorb  []int
	forward, backwd []int
}

func captureRun(r *Runner, opt RunOptions) runOutcome {
	res := r.Run(opt)
	o := runOutcome{steps: res.Steps, done: res.Done, engine: res.Engine, router: res.Router,
		wait: res.InjectWait, transit: res.Transit}
	for i := range r.eng.Packets {
		pk := &r.eng.Packets[i]
		o.inject = append(o.inject, pk.InjectTime)
		o.absorb = append(o.absorb, pk.AbsorbTime)
		o.forward = append(o.forward, pk.ForwardMoves)
		o.backwd = append(o.backwd, pk.BackwardMoves)
	}
	return o
}

func (o runOutcome) diff(want runOutcome) string {
	switch {
	case o.steps != want.steps || o.done != want.done:
		return fmt.Sprintf("steps/done %d/%v, want %d/%v", o.steps, o.done, want.steps, want.done)
	case o.engine != want.engine:
		return fmt.Sprintf("engine metrics\n got %+v\nwant %+v", o.engine, want.engine)
	case o.router != want.router:
		return fmt.Sprintf("router stats\n got %+v\nwant %+v", o.router, want.router)
	case o.wait != want.wait || o.transit != want.transit:
		return fmt.Sprintf("latency summaries\n got %v / %v\nwant %v / %v", o.wait, o.transit, want.wait, want.transit)
	case !slices.Equal(o.inject, want.inject) || !slices.Equal(o.absorb, want.absorb):
		return "per-packet inject/absorb times"
	case !slices.Equal(o.forward, want.forward) || !slices.Equal(o.backwd, want.backwd):
		return "per-packet forward/backward moves"
	}
	return ""
}

// TestIdleSkipDifferential pins the engine's idle fast-forward against
// per-step execution: every run is made twice on one Runner, once plain
// (Run may skip quiescent stretches) and once with a no-op Observer
// attached (which forces every step to execute), and the two must
// commit identical results down to each packet's timing. Cases: the
// frame-batch corpus over 20 seeds, a flapping-link fault campaign,
// staged waves through NewFrameWithSets, and both ablations.
func TestIdleSkipDifferential(t *testing.T) {
	ps := corpus(t)
	seeds := 20
	if testing.Short() {
		seeds = 3
	}
	practical := func(p *workload.Problem) Params { return DefaultPractical(p.C, p.L(), p.N()) }
	type skipCase struct {
		name   string
		runner func() *Runner
		faults func(seed int64) sim.FaultModel
		seeds  int
	}
	var cases []skipCase
	for i, p := range ps {
		cases = append(cases, skipCase{
			name:   fmt.Sprintf("corpus%d", i),
			runner: func() *Runner { return NewRunner(p, practical(p), 1, 0) },
			seeds:  seeds,
		})
	}
	p0 := ps[0]
	flap := faults.Flap{Period: 32, Down: 4, Rate: 0.3}
	cases = append(cases,
		skipCase{
			name:   "faulted",
			runner: func() *Runner { return NewRunner(p0, practical(p0), 1, 0) },
			faults: func(seed int64) sim.FaultModel { return flap.Model(p0.G, seed) },
			seeds:  2,
		},
		skipCase{
			name: "eager",
			runner: func() *Runner {
				r := NewRunner(p0, practical(p0), 1, 0)
				r.router.EagerInjection = true
				return r
			},
			seeds: 2,
		},
		skipCase{
			name: "nowait",
			runner: func() *Runner {
				r := NewRunner(p0, practical(p0), 1, 0)
				r.router.DisableWait = true
				return r
			},
			seeds: 2,
		},
	)
	wrng := rand.New(rand.NewSource(4))
	wg, err := topo.Random(wrng, 20, 3, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := workload.Waves(wg, wrng, 3, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	wparams := Params{NumSets: 6, M: 6, W: 18, Q: 0.05}
	assign := wp.SetAssignment(wrng, 2)
	cases = append(cases, skipCase{
		name: "waves",
		runner: func() *Runner {
			router := NewFrameWithSets(wparams, assign)
			return &Runner{p: wp.Problem, params: wparams, router: router, eng: sim.NewEngine(wp.Problem, router, 0)}
		},
		seeds: seeds,
	})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.runner()
			for s := 1; s <= tc.seeds; s++ {
				opt := RunOptions{Seed: int64(s)}
				if tc.faults != nil {
					opt.Faults = tc.faults(opt.Seed)
				}
				skipped := captureRun(r, opt)
				opt.Observer = func(int, *sim.Engine) {}
				stepped := captureRun(r, opt)
				if d := skipped.diff(stepped); d != "" {
					t.Errorf("seed %d: skipping run differs from stepped run: %s", s, d)
				}
			}
		})
	}
}
