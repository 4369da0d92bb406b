package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// workloadDef is one benchmark workload. why records the reason it was
// chosen; BENCHMARK.json repeats it.
type workloadDef struct {
	name string
	why  string
	run  func(e *env) error
}

var workloads = []workloadDef{
	{"frame-batch", "the paper's frame router on C>>L hot-spot batches; core and sim do all the work", frameBatch},
	{"greedy-hotspot", "the same batches routed greedily on the bare sim engine: arbitration and deflection, no core", greedyHotspot},
	{"svc-replay", "closed loop through the HTTP handler with manual stepping, stats reads and snapshot restarts", svcReplay},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// env is what a workload run works with.
type env struct {
	cfg *runConfig
	r   *report
	tr  *tracer // nil when untraced
}

// The batch workloads route hot-spot problems on a depth-10 butterfly:
// 1024 packets from distinct sources to 8 top-level spots, so that the
// congestion C (76..139, about 95 at the median) far exceeds the depth
// L = 10.
// The problems are a fixed corpus, the first cfg.pool drawn from seed 1;
// the workload seed chooses each run's engine seed. A greedy run's
// makespan is set by its problem alone (it is the same for every engine
// seed) and ranges from 0.93 to 1.31 times C + L across problems, so
// problems drawn per seed would make the seed, not the program, decide
// the reported cost.
const (
	batchDim     = 10
	batchPackets = 1024
	batchSpots   = 8
	// greedyBudget bounds one greedy run; a run takes 100 to 160 steps.
	greedyBudget = 100000
)

// Golden totals: the summed steps of the runs with engine seeds 1..n on
// the corpus's first problem (C = 84). They pin routing
// behaviour: a change that alters any step of these runs fails the
// benchmark's checks.
const (
	goldenFrameRuns   = 20
	goldenFrameSteps  = 3419179
	goldenGreedyRuns  = 50
	goldenGreedySteps = 5100
)

func hotspot(g *graph.Leveled, rng *rand.Rand) (*workload.Problem, error) {
	return workload.HotSpot(g, rng, batchPackets, batchSpots)
}

// problemPool draws the corpus: the first cfg.pool problems from seed 1.
func (e *env) problemPool(g *graph.Leveled) ([]*workload.Problem, error) {
	rng := rand.New(rand.NewSource(1))
	ps := make([]*workload.Problem, e.cfg.pool)
	for i := range ps {
		p, err := hotspot(g, rng)
		if err != nil {
			return nil, err
		}
		ps[i] = p
		fmt.Printf("problem %d: %s\n", i, p)
	}
	return ps, nil
}

// runSeed is the engine seed of a batch workload's i-th run.
func runSeed(seed int64, i int) int64 { return seed*1000003 + int64(i) }

// batchSetup times one cold construction of a batch workload's system:
// the network, the corpus's first problem, and the router's runner or
// engine.
func batchSetup(l layer, name string, build func(p *workload.Problem) func()) setupFunc {
	return func(sw *stopwatch) (func(), error) {
		var g *graph.Leveled
		var p *workload.Problem
		var cleanup func()
		err := sw.time(layerTopo, "Butterfly", func() (err error) { g, err = topo.Butterfly(batchDim); return })
		if err == nil {
			err = sw.time(layerWorkload, "HotSpot", func() (err error) { p, err = hotspot(g, rand.New(rand.NewSource(1))); return })
		}
		if err == nil {
			sw.time(l, name, func() error { cleanup = build(p); return nil })
		}
		return cleanup, err
	}
}

// batchTotals accumulates the measured batch runs.
type batchTotals struct {
	packets, steps           int
	moves, deflections       int
	excitedOK, excitedFailed int
	makespans, ratios        []float64
}

func (b *batchTotals) add(w *window, steps, packets, c, l, moves, deflections int) {
	w.packets += float64(packets)
	b.packets += packets
	b.steps += steps
	b.moves += moves
	b.deflections += deflections
	b.makespans = append(b.makespans, float64(steps))
	b.ratios = append(b.ratios, float64(steps)/float64(c+l))
}

// finish reports the batch metrics. A batch's delivery is the whole
// problem, so its delivery time is the makespan. busy is the traced time
// spent in core and sim, which the per-layer rates divide by.
func (b *batchTotals) finish(r *report, busy time.Duration) {
	r.set("deliver_steps_p50", stepQuantile(b.makespans, 0.5))
	r.set("deliver_steps_p99", stepQuantile(b.makespans, 0.99))
	r.set("delivered_ratio", 1) // a finished batch run delivers every packet; unfinished runs fail
	r.set("sim.makespan_ratio", median(b.ratios))
	r.set("sim.steps_per_s", ratio(float64(b.steps), busy.Seconds()))
	r.set("sim.moves_per_s", ratio(float64(b.moves), busy.Seconds()))
	r.set("sim.useful_move_ratio", ratio(float64(b.moves-b.deflections), float64(b.moves)))
	r.set("sim.deflections_per_pkt", ratio(float64(b.deflections), float64(b.packets)))
	r.set("core.excited_success_ratio", ratio(float64(b.excitedOK), float64(b.excitedOK+b.excitedFailed)))
	for _, m := range []string{"dynamic.steps_per_s", "dynamic.deflections_per_pkt", "dynamic.live_mean",
		"service.quota_admit_ratio", "http.requests_per_s", "persist.snapshot_kb"} {
		r.set(m, 0)
	}
}

// checkGolden runs the golden seeds on the corpus's first problem and
// compares their summed steps with the pinned total.
func checkGolden(r *report, name string, runs, want int, run func(seed int64) (steps int, done bool)) {
	sum := 0
	for s := 1; s <= runs; s++ {
		steps, done := run(int64(s))
		r.check(done, "%s golden run seed %d did not finish", name, s)
		sum += steps
	}
	r.check(sum == want, "%s golden runs: summed steps %d, pinned %d", name, sum, want)
}

func newFrameRunner(p *workload.Problem) *core.Runner {
	return core.NewRunner(p, core.DefaultPractical(p.C, p.L(), p.N()), 1, 0)
}

// frameBatch routes the pool's problems in turn with core.Runner, the
// frame router on the batch engine.
func frameBatch(e *env) error {
	g, err := topo.Butterfly(batchDim)
	if err != nil {
		return err
	}
	problems, err := e.problemPool(g)
	if err != nil {
		return err
	}
	runners := make([]*core.Runner, len(problems))
	for i, p := range problems {
		runners[i] = newFrameRunner(p)
		defer runners[i].Close()
	}
	checkGolden(e.r, "frame", goldenFrameRuns, goldenFrameSteps, func(seed int64) (int, bool) {
		res := runners[0].Run(core.RunOptions{Seed: seed})
		return res.Steps, res.Done
	})

	var tot batchTotals
	setup := batchSetup(layerCore, "NewRunner", func(p *workload.Problem) func() { return newFrameRunner(p).Close })
	wall, err := e.measure(setup, e.closedLoop(func(i int, w *window) error {
		k := i % len(runners)
		seed := runSeed(e.cfg.seed, i)
		e.tr.begin(layerCore, "Runner.Run", seed)
		res := runners[k].Run(core.RunOptions{Seed: seed})
		e.tr.end()
		if !res.Done {
			return fmt.Errorf("frame run seed %d on problem %d: not done after %d steps", seed, k, res.Steps)
		}
		if w != nil {
			tot.add(w, res.Steps, res.N, res.C, res.L, res.Engine.Moves, res.Engine.TotalDeflections())
			tot.excitedOK += res.Router.ExcitedSuccesses
			tot.excitedFailed += res.Router.ExcitedFailures
		}
		return nil
	}))
	if err != nil {
		return err
	}
	e.finishBatch(&tot, wall)
	return nil
}

// finishBatch reports a batch workload's totals and busy shares, then
// its live heap once the totals' samples are released.
func (e *env) finishBatch(tot *batchTotals, wall time.Duration) {
	var self [numLayers]time.Duration
	if e.tr != nil {
		self = e.tr.self
	}
	// From outside, a frame run's sim work is inside core.Runner.Run, so
	// the per-step rates divide by core and sim time together.
	tot.finish(e.r, self[layerCore]+self[layerSim])
	tot.makespans, tot.ratios = nil, nil
	e.setBusy(self, wall)
	e.liveHeap()
}

// greedyHotspot routes the same kind of problems with the greedy
// hot-potato baseline on bare sim.Engines (Reset, then Run).
func greedyHotspot(e *env) error {
	g, err := topo.Butterfly(batchDim)
	if err != nil {
		return err
	}
	problems, err := e.problemPool(g)
	if err != nil {
		return err
	}
	engines := make([]*sim.Engine, len(problems))
	for i, p := range problems {
		engines[i] = sim.NewEngine(p, baselines.NewGreedy(), 0)
	}
	checkGolden(e.r, "greedy", goldenGreedyRuns, goldenGreedySteps, func(seed int64) (int, bool) {
		engines[0].Reset(seed)
		return engines[0].Run(greedyBudget)
	})

	var tot batchTotals
	setup := batchSetup(layerSim, "NewEngine", func(p *workload.Problem) func() {
		sim.NewEngine(p, baselines.NewGreedy(), 0)
		return nil
	})
	wall, err := e.measure(setup, e.closedLoop(func(i int, w *window) error {
		k := i % len(engines)
		eng, p := engines[k], problems[k]
		seed := runSeed(e.cfg.seed, i)
		e.tr.begin(layerSim, "Engine.Reset", seed)
		eng.Reset(seed)
		e.tr.end()
		e.tr.begin(layerSim, "Engine.Run", seed)
		steps, done := eng.Run(greedyBudget)
		e.tr.end()
		if !done {
			return fmt.Errorf("greedy run seed %d on problem %d: not done after %d steps", seed, k, steps)
		}
		if w != nil {
			tot.add(w, steps, p.N(), p.C, p.L(), eng.M.Moves, eng.M.TotalDeflections())
		}
		return nil
	}))
	if err != nil {
		return err
	}
	e.finishBatch(&tot, wall)
	runtime.KeepAlive(engines) // live through the heap measurement
	return nil
}
