package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/dynamic"
	"hotpotato/internal/faults"
	"hotpotato/internal/mc"
	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// Row is one measurement of a BENCH_*.json document.
type Row struct {
	// Name identifies the row across recordings; Compare keys on it.
	// Observability rows end in "/<mode>".
	Name string `json:"name"`
	// NsPerStep holds one sample per rep: the rep's summed wall time
	// over its summed steps. Compare gates the bootstrap interval of
	// the median of these reps scaled to a nominal host speed (see
	// Scaled and MedianCI).
	NsPerStep []float64 `json:"ns_per_step,omitempty"`
	// KernelNs holds, for each rep, the time of the fixed host kernel
	// run right after it (hostspeed.go): how fast the host ran at the
	// time. Rows recorded before the kernel existed have none.
	KernelNs []float64 `json:"kernel_ns,omitempty"`
	// Steps is the measured step count of the shortest rep.
	Steps int `json:"steps"`
	// AllocsPerStep is the minimum over reps of heap allocations per
	// step. Every rep replays the same warmed workload, so an allocation
	// on the stepping path recurs in every rep, while a stray runtime
	// allocation (a new M on the start-the-world inside ReadMemStats,
	// the scavenger's timer, a GC mark worker) lands in one rep and is
	// discarded.
	AllocsPerStep float64 `json:"allocs_per_step"`
	// Gated marks the rows CheckStrictAllocs holds to 0 allocs/step.
	// Instrumented rows and the faulted service row are reported but
	// not gated: probe consumers and fault-model closures are outside
	// the engines' allocation contract.
	Gated bool `json:"gated"`
	// Metrics holds the row's shape and derived figures: nodes, edges,
	// packets, the ramp/steady split, overhead_pct, peak in flight,
	// ensemble throughput.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Median is the median rep's ns/step, or 0 for a row without samples.
func (r Row) Median() float64 {
	if len(r.NsPerStep) == 0 {
		return 0
	}
	return stats.QuantileUnsorted(r.NsPerStep, 0.5)
}

// Scaled returns the reps' ns/step as if the host had run at the
// kernel's nominal speed: each rep times kernelNominalNs over its
// kernel time. A row without one kernel time per rep returns its raw
// reps.
func (r Row) Scaled() []float64 {
	if !r.hasKernel() {
		return r.NsPerStep
	}
	out := make([]float64, len(r.NsPerStep))
	for i, ns := range r.NsPerStep {
		out[i] = ns * kernelNominalNs / r.KernelNs[i]
	}
	return out
}

func (r Row) hasKernel() bool {
	return len(r.NsPerStep) > 0 && len(r.KernelNs) == len(r.NsPerStep)
}

// MedianCI is the 95% percentile-bootstrap interval of the median of
// the scaled reps (Scaled), drawn from a fixed seed so a document
// always yields the same interval.
func (r Row) MedianCI() stats.QuantileCI { return medianCI(r.Scaled()) }

func medianCI(xs []float64) stats.QuantileCI {
	return stats.BootstrapQuantileCI(xs, 0.5, 1000, 0x5eed, 0.95)
}

// Doc is one BENCH_*.json document: the recording host, the suite and
// scale, and the rows.
type Doc struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CPUModel names the recording host's processor when the platform
	// exposes it (/proc/cpuinfo on linux); empty otherwise.
	CPUModel string `json:"cpu_model,omitempty"`
	Suite    string `json:"suite"`
	Scale    int    `json:"scale"`
	Rows     []Row  `json:"rows"`
}

// Run records one benchmark suite. Suites:
//
//   - engine: the batch engine on dense and sparse butterflies, the hard
//     mesh and a random leveled network, and Monte-Carlo ensemble
//     throughput with vs without engine reuse;
//   - dynamic: the open-system (service) engine replaying the
//     batch/advance/drain script of scripts/service_smoke.sh;
//   - obs: the observability layer's per-step overhead.
//
// Scale 1 is the quick CI shape; scale 2 grows the networks to the
// sizes the docs quote.
func Run(suite string, scale int) (*Doc, error) {
	if scale < 1 {
		scale = 1
	}
	d := &Doc{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Suite:      suite,
		Scale:      scale,
	}
	var err error
	switch suite {
	case "engine":
		err = runEngineSuite(d)
	case "dynamic":
		err = runDynamicSuite(d)
	case "obs":
		err = runObsSuite(d)
	default:
		return nil, fmt.Errorf("bench: unknown suite %q (want engine|dynamic|obs)", suite)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// cpuModel best-effort-identifies the host processor. Linux exposes it
// in /proc/cpuinfo; elsewhere (or in stripped containers) the empty
// string is recorded and consumers fall back to num_cpu/gomaxprocs.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

const (
	// benchReps is how many samples each row takes at least; while the
	// median's interval (Row.MedianCI) is wider than benchCIWidth of
	// the median, measure adds reps, up to benchMaxReps.
	benchReps    = 5
	benchMaxReps = 15
	benchCIWidth = 0.10
	// benchWindow is the fewest steps one rep measures: a rep repeats
	// its pass until it has covered this many. The dense butterfly
	// drains in ~14 steps, tens of microseconds, where a single pass is
	// scheduler and cache noise and a single runtime malloc reads as
	// 0.07 allocs/step.
	benchWindow = 1 << 14
	// runBudget bounds one pass; a pass that cannot finish within it is
	// broken, not slow.
	runBudget = 1 << 22
)

// pass is one timed replay of a row's workload. The ramp is the prefix
// during which packets are still being admitted; the rest is the drain.
type pass struct {
	steps, rampSteps int
	wall, ramp       time.Duration
}

// measure is the one measure loop behind every stepped row: warm once,
// so measured passes see no scratch growth or first-touch allocation;
// then take benchReps reps (more while the scaled median's interval is
// wide), each repeating the pass until it reaches benchWindow steps and
// followed by the host kernel. Only the passes' own clocks count, so
// per-pass rewinds stay outside the timing. The metrics record the
// mean pass, and steady_ns_per_step the fastest rep's drain rate.
func measure(name string, run func() (pass, error)) (Row, error) {
	if _, err := run(); err != nil {
		return Row{}, fmt.Errorf("bench: %s (warmup): %w", name, err)
	}
	kernel := newHostKernel()
	row := Row{Name: name, AllocsPerStep: math.Inf(1)}
	steady := 0.0
	var tot pass
	passes := 0
	for rep := 0; rep < benchReps || (rep < benchMaxReps && wideCI(row)); rep++ {
		tot, passes = pass{}, 0
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for tot.steps < benchWindow {
			p, err := run()
			if err != nil {
				return Row{}, fmt.Errorf("bench: %s: %w", name, err)
			}
			if p.steps == 0 {
				return Row{}, fmt.Errorf("bench: %s executed no steps", name)
			}
			tot.steps += p.steps
			tot.rampSteps += p.rampSteps
			tot.wall += p.wall
			tot.ramp += p.ramp
			passes++
		}
		runtime.ReadMemStats(&after)
		row.AllocsPerStep = min(row.AllocsPerStep, float64(after.Mallocs-before.Mallocs)/float64(tot.steps))
		row.NsPerStep = append(row.NsPerStep, float64(tot.wall.Nanoseconds())/float64(tot.steps))
		row.KernelNs = append(row.KernelNs, kernel.quietNs())
		if rep == 0 || tot.steps < row.Steps {
			row.Steps = tot.steps
		}
		if drain := tot.steps - tot.rampSteps; drain > 0 {
			ns := float64((tot.wall - tot.ramp).Nanoseconds()) / float64(drain)
			if steady == 0 || ns < steady {
				steady = ns
			}
		}
	}
	row.Metrics = map[string]float64{
		"pass_steps": float64(tot.steps) / float64(passes),
		"ramp_steps": float64(tot.rampSteps) / float64(passes),
	}
	if steady > 0 {
		row.Metrics["steady_ns_per_step"] = steady
	}
	return row, nil
}

// wideCI reports whether r's scaled median interval spans more than
// benchCIWidth of the median.
func wideCI(r Row) bool {
	ci := r.MedianCI()
	return ci.Hi-ci.Lo > benchCIWidth*ci.Estimate
}

// enginePass rewinds e and re-attaches its instrumentation outside the
// clock, then times one run split at the last injection. The ramp is
// stepped with the same Step loop Run uses, so the trace is unaffected.
func enginePass(e *sim.Engine, attach func(*sim.Engine)) func() (pass, error) {
	n := len(e.Packets)
	return func() (pass, error) {
		e.Reset(1)
		if attach != nil {
			attach(e)
		}
		var p pass
		start := time.Now()
		for e.M.Injected < n && !e.Done() && p.rampSteps < runBudget {
			e.Step()
			p.rampSteps++
		}
		p.ramp = time.Since(start)
		steps, done := e.Run(runBudget)
		p.wall = time.Since(start)
		if !done {
			return pass{}, fmt.Errorf("run did not complete within %d steps", runBudget)
		}
		p.steps = steps
		return p, nil
	}
}

// staggeredGreedy admits packet i only from step i/rate, keeping a few
// percent of a large workload in flight at once — the sparse regime the
// active-set bookkeeping exists for (a full sweep would pay for every
// node and packet per step regardless of activity).
type staggeredGreedy struct {
	*baselines.Greedy
	rate int
}

func (s *staggeredGreedy) WantInject(t int, p *sim.Packet) bool {
	return t >= int(p.ID)/s.rate
}

// InjectStep overrides the embedded Greedy's step-0 bound with the
// wrapper's exact admission step, so the engine's release queue sweeps
// only the packets at the admission edge instead of the whole workload.
// The embedded Greedy's EndStep is a no-op, as the planner contract
// requires.
func (s *staggeredGreedy) InjectStep(p *sim.Packet) int { return int(p.ID) / s.rate }

// engineCase is one batch-engine workload.
type engineCase struct {
	name  string
	build func() (*workload.Problem, error)
	route func() sim.Router
}

// engineCases returns the dense butterfly, the sparse (staggered)
// butterfly, the hard mesh and a random leveled network at scale, and
// the greedy hot-spot batch at every scale.
func engineCases(scale int) []engineCase {
	denseK, sparseK, meshN := 7, 10, 12
	if scale >= 2 {
		denseK, sparseK, meshN = 8, 12, 16
	}
	greedy := func() sim.Router { return baselines.NewGreedy() }
	return []engineCase{
		{
			name: fmt.Sprintf("butterfly(%d)-dense", denseK),
			build: func() (*workload.Problem, error) {
				g, err := topo.Butterfly(denseK)
				if err != nil {
					return nil, err
				}
				return workload.FullThroughput(g, rngFor("bench-engine-dense", denseK))
			},
			route: greedy,
		},
		{
			name: fmt.Sprintf("butterfly(%d)-sparse", sparseK),
			build: func() (*workload.Problem, error) {
				g, err := topo.Butterfly(sparseK)
				if err != nil {
					return nil, err
				}
				return workload.FullThroughput(g, rngFor("bench-engine-sparse", sparseK))
			},
			route: func() sim.Router { return &staggeredGreedy{Greedy: baselines.NewGreedy(), rate: 16} },
		},
		{
			name:  fmt.Sprintf("mesh(%d)-hard", meshN),
			build: func() (*workload.Problem, error) { return workload.MeshHard(meshN) },
			route: greedy,
		},
		{
			name: "random(depth=24)",
			build: func() (*workload.Problem, error) {
				g, err := topo.Random(rngFor("bench-engine-random", 0), 24, 4, 8, 0.5)
				if err != nil {
					return nil, err
				}
				return workload.Random(g, rngFor("bench-engine-random", 1), 0.5)
			},
			route: greedy,
		},
		{
			// The contended step of the greedy-hotspot benchmark: the
			// first problem of its corpus, 1024 packets to 8 spots.
			name:  "butterfly(10)-hotspot/greedy",
			build: hotspotProblem,
			route: greedy,
		},
	}
}

// hotspotProblem is the first problem of the batch benchmarks' corpus:
// 1024 packets from distinct sources to 8 top-level spots of
// butterfly(10).
func hotspotProblem() (*workload.Problem, error) {
	g, err := topo.Butterfly(10)
	if err != nil {
		return nil, err
	}
	return workload.HotSpot(g, rand.New(rand.NewSource(1)), 1024, 8)
}

// runEngineSuite records the engine suite.
func runEngineSuite(d *Doc) error {
	for _, c := range engineCases(d.Scale) {
		if err := runEngineCase(d, c); err != nil {
			return err
		}
	}
	if err := runFrameCase(d); err != nil {
		return err
	}
	ens, err := measureEnsembleReuse(d.Scale)
	if err != nil {
		return err
	}
	d.Rows = append(d.Rows, ens)
	return nil
}

// runEngineCase measures c on one engine and appends its gated row to
// d.
func runEngineCase(d *Doc, c engineCase) error {
	p, err := c.build()
	if err != nil {
		return fmt.Errorf("bench: %s: %w", c.name, err)
	}
	e := sim.NewEngine(p, c.route(), 1)
	row, err := measure(c.name, enginePass(e, nil))
	if err != nil {
		return err
	}
	row.Gated = true
	row.Metrics["nodes"] = float64(p.G.NumNodes())
	row.Metrics["edges"] = float64(p.G.NumEdges())
	row.Metrics["packets"] = float64(p.N())
	row.Metrics["max_in_flight"] = float64(e.M.MaxInFlight)
	d.Rows = append(d.Rows, row)
	return nil
}

// countedFrame is the frame router with a count of the steps the engine
// executes, which are the steps its EndStep sees.
type countedFrame struct {
	*core.Frame
	n                 int // packets in the problem
	executed, rampEnd int
	rampDone          time.Time
}

func (c *countedFrame) EndStep(t int, e *sim.Engine) {
	c.executed++
	if c.rampEnd == 0 && e.M.Injected == c.n {
		c.rampEnd, c.rampDone = c.executed, time.Now()
	}
	c.Frame.EndStep(t, e)
}

// runFrameCase measures the frame-batch benchmark's router on the first
// problem of its corpus: core.Frame with DefaultPractical, gated at 0
// allocs/step. Run fast-forwards over the steps with nothing in flight,
// about 170k of a run's ~171k simulated steps, so the row's ns/step and
// steps count the executed steps only (about 1,000 a run);
// simulated_steps records the makespan. The ramp ends at the step of
// the last injection.
func runFrameCase(d *Doc) error {
	const name = "butterfly(10)-hotspot/frame"
	p, err := hotspotProblem()
	if err != nil {
		return fmt.Errorf("bench: %s: %w", name, err)
	}
	fr := &countedFrame{Frame: core.NewFrame(core.DefaultPractical(p.C, p.L(), p.N())), n: p.N()}
	e := sim.NewEngine(p, fr, 1)
	row, err := measure(name, func() (pass, error) {
		e.Reset(1)
		fr.executed, fr.rampEnd = 0, 0
		start := time.Now()
		_, done := e.Run(runBudget)
		p := pass{steps: fr.executed, rampSteps: fr.rampEnd, wall: time.Since(start), ramp: fr.rampDone.Sub(start)}
		if !done {
			return pass{}, fmt.Errorf("run did not complete within %d steps", runBudget)
		}
		return p, nil
	})
	if err != nil {
		return err
	}
	row.Gated = true
	row.Metrics["nodes"] = float64(p.G.NumNodes())
	row.Metrics["edges"] = float64(p.G.NumEdges())
	row.Metrics["packets"] = float64(p.N())
	row.Metrics["max_in_flight"] = float64(e.M.MaxInFlight)
	row.Metrics["simulated_steps"] = float64(e.Now())
	d.Rows = append(d.Rows, row)
	return nil
}

// measureEnsembleReuse times the same Monte-Carlo ensemble twice: once
// rebuilding every engine (FreshEngines) and once with the default
// per-worker engine reuse. The row carries throughput metrics only; its
// unit is trials, not steps.
func measureEnsembleReuse(scale int) (Row, error) {
	const meshN = 8
	p, err := workload.MeshHard(meshN)
	if err != nil {
		return Row{}, err
	}
	params := core.ParamsPractical(p.C, p.L(), p.N(),
		core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	trials := 64 * scale

	run := func(fresh bool) (time.Duration, error) {
		start := time.Now()
		_, err := mc.Run(p, params, mc.Options{Trials: trials, FreshEngines: fresh})
		return time.Since(start), err
	}
	// Warm once (page faults and lazily built topology caches are
	// real), then measure both paths.
	if _, err := run(true); err != nil {
		return Row{}, err
	}
	fresh, err := run(true)
	if err != nil {
		return Row{}, err
	}
	reused, err := run(false)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Name: fmt.Sprintf("mesh(%d)-hard/ensemble", meshN),
		Metrics: map[string]float64{
			"trials":                float64(trials),
			"workers":               float64(runtime.GOMAXPROCS(0)),
			"fresh_trials_per_sec":  float64(trials) / fresh.Seconds(),
			"reused_trials_per_sec": float64(trials) / reused.Seconds(),
			"reuse_speedup":         fresh.Seconds() / reused.Seconds(),
		},
	}, nil
}

// dynScript is the scripted service workload one dynamic row replays:
// batches of batchSize random packets, advance steps apart, then a
// drain.
type dynScript struct {
	name               string
	k                  int // butterfly dimension
	batches, batchSize int
	advance            int
	faulted            bool
}

// runDynamicSuite measures the dynamic engine on the service-smoke
// butterfly (scale 1) plus three larger butterflies and a faulted
// variant (scale 2) — the manual-stepped shape scripts/service_smoke.sh drives
// through the HTTP API, minus the HTTP — and, at scale 2, butterfly(7)
// at the packet rate of the svc-replay benchmark.
func runDynamicSuite(d *Doc) error {
	scripts := []dynScript{
		// openload -serve defaults to butterfly(5), manual stepping,
		// retry 8.
		{name: "butterfly(5)-service", k: 5, batches: 24, batchSize: 16, advance: 5},
	}
	if d.Scale >= 2 {
		scripts = append(scripts,
			dynScript{name: "butterfly(7)-service", k: 7, batches: 48, batchSize: 32, advance: 5},
			// The smallest butterfly whose 8-byte count rows would pass
			// paths.MaxCountBytes. Butterflies are unique-path, so this
			// row and the next draw paths off the reach matrix (0.8 MiB
			// here) and keep no count rows.
			dynScript{name: "butterfly(8)-service", k: 8, batches: 48, batchSize: 64, advance: 5},
			// The smallest butterfly whose one-byte count rows passed
			// it; its reach matrix takes 19 MiB.
			dynScript{name: "butterfly(10)-service", k: 10, batches: 48, batchSize: 128, advance: 5},
			dynScript{name: "butterfly(5)-service-faulted", k: 5, batches: 24, batchSize: 16, advance: 5, faulted: true},
			// The load of the end-to-end svc-replay benchmark, near the
			// stability knee: 120 random packets every step. The rows
			// above peak at tens of packets in flight and spend most
			// steps draining; this one keeps hundreds in flight.
			dynScript{name: "butterfly(7)-knee", k: 7, batches: 240, batchSize: 120, advance: 1},
		)
	}
	for _, sc := range scripts {
		g, err := topo.Butterfly(sc.k)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", sc.name, err)
		}
		cfg := dynamic.Config{Seed: 42, Retry: dynamic.RetryPolicy{MaxAttempts: 8}}
		if sc.faulted {
			cfg.Faults = faults.Flap{Period: 40, Down: 6, Rate: 0.3}.Model(g, 11)
		}
		e, err := dynamic.NewEngine(g, cfg)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", sc.name, err)
		}
		row, err := measure(sc.name, dynamicPass(e, sc))
		if err != nil {
			return err
		}
		row.Gated = !sc.faulted
		row.Metrics["nodes"] = float64(g.NumNodes())
		row.Metrics["edges"] = float64(g.NumEdges())
		row.Metrics["packets"] = float64(sc.batches * sc.batchSize)
		row.Metrics["retry_max_attempts"] = float64(cfg.Retry.MaxAttempts)
		row.Metrics["peak_in_flight"] = float64(e.Peek().PeakInFlight)
		d.Rows = append(d.Rows, row)
	}
	return nil
}

// dynamicPass replays the script once on e. The engine drains at the
// end of every pass, so passes need no rewind; the ramp covers the
// batches (path draws included), the rest is the drain a long-running
// service spends most of its life in.
func dynamicPass(e *dynamic.Engine, sc dynScript) func() (pass, error) {
	return func() (pass, error) {
		var p pass
		start := time.Now()
		steps0 := e.StepCount()
		for b := 0; b < sc.batches; b++ {
			if err := e.SubmitRandom("bench", sc.batchSize); err != nil {
				return pass{}, err
			}
			for a := 0; a < sc.advance; a++ {
				if err := e.Step(); err != nil {
					return pass{}, err
				}
			}
		}
		p.rampSteps = e.StepCount() - steps0
		p.ramp = time.Since(start)
		for i := 0; e.HasWork(); i++ {
			if i >= runBudget {
				return pass{}, fmt.Errorf("did not drain within %d steps", runBudget)
			}
			if err := e.Step(); err != nil {
				return pass{}, err
			}
		}
		p.steps = e.StepCount() - steps0
		p.wall = time.Since(start)
		return p, nil
	}
}

// summingProbe consumes the series without allocating, so the rows
// measure the probe path itself rather than a consumer's copies.
type summingProbe struct {
	steps, rounds, phases int
	deflections           int
}

func (p *summingProbe) OnStep(s *obs.StepStats) {
	p.steps++
	for _, d := range s.Deflections {
		p.deflections += d
	}
}
func (p *summingProbe) OnRound(*obs.StepStats) { p.rounds++ }
func (p *summingProbe) OnPhase(*obs.StepStats) { p.phases++ }

// runObsSuite measures the instrumentation overhead on the dense
// butterfly (the zero-alloc shape) and the hard mesh: the same warmed
// engine with nothing attached ("disabled", gated at 0 allocs/step), an
// obs.Collector feeding a summing probe ("probe"), and additionally a
// 4096-event lifecycle ring ("probe+lifecycle"). overhead_pct relates
// each mode's median rep to the disabled row's.
func runObsSuite(d *Doc) error {
	cases := engineCases(d.Scale)
	for _, c := range []engineCase{cases[0], cases[2]} {
		p, err := c.build()
		if err != nil {
			return fmt.Errorf("bench: %s: %w", c.name, err)
		}
		e := sim.NewEngine(p, c.route(), 1)
		coll := obs.NewCollector(nil, &summingProbe{})
		ring := obs.NewLifecycle(4096)
		modes := []struct {
			name   string
			attach func(*sim.Engine)
		}{
			{"disabled", nil},
			{"probe", coll.Attach},
			{"probe+lifecycle", func(e *sim.Engine) {
				coll.Attach(e)
				ring.Attach(e)
			}},
		}
		var base float64
		for _, m := range modes {
			row, err := measure(c.name+"/"+m.name, enginePass(e, m.attach))
			if err != nil {
				return err
			}
			row.Gated = m.attach == nil
			if row.Gated {
				base = row.Median()
			} else if base > 0 {
				row.Metrics["overhead_pct"] = 100 * (row.Median() - base) / base
			}
			d.Rows = append(d.Rows, row)
		}
	}
	return nil
}

// Read loads a recorded BENCH_*.json document.
func Read(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &d, nil
}

// Write stores d at path as indented JSON.
func Write(path string, d *Doc) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CheckStrictAllocs is the zero-allocation gate: every gated row of a
// warmed engine must record exactly 0 allocs/step.
func CheckStrictAllocs(d *Doc) error {
	for _, r := range d.Rows {
		if r.Gated && r.AllocsPerStep > 0 {
			return fmt.Errorf("bench: gated row %s allocated %.4f allocs/step; want 0", r.Name, r.AllocsPerStep)
		}
	}
	return nil
}

// Compare is the regression gate: a row matched by name between the
// committed baseline and the current document fails only when the lower
// bound of its current median interval (Row.MedianCI) exceeds the
// baseline's median rep by more than tolerance (fractional; 0.10 =
// 10%), so host noise that moves single reps by 30% does not trip it.
// Both sides are compared as scaled reps (Row.Scaled), so a host that
// runs slower through a whole recording does not trip it either; when
// either side has no kernel times, both are compared raw. Rows on one
// side only are ignored (names scale with the suite's scale). Documents
// of a different suite or scale compare nothing, with a warning.
func Compare(baseline, current *Doc, tolerance float64) ([]string, error) {
	if baseline.Suite != current.Suite || baseline.Scale != current.Scale {
		return []string{fmt.Sprintf("baseline %s scale %d != current %s scale %d; nothing compared",
			baseline.Suite, baseline.Scale, current.Suite, current.Scale)}, nil
	}
	base := make(map[string]Row, len(baseline.Rows))
	for _, r := range baseline.Rows {
		base[r.Name] = r
	}
	for _, r := range current.Rows {
		b, ok := base[r.Name]
		if !ok || len(b.NsPerStep) == 0 || len(r.NsPerStep) == 0 {
			continue
		}
		bs, rs, basis := b.Scaled(), r.Scaled(), "host-scaled"
		if !b.hasKernel() || !r.hasKernel() {
			bs, rs, basis = b.NsPerStep, r.NsPerStep, "raw"
		}
		old, cur := stats.QuantileUnsorted(bs, 0.5), medianCI(rs)
		if cur.Lo > old*(1+tolerance) {
			return nil, fmt.Errorf("bench: regression on %s: %s median %.2f ns/step (95%% interval %.2f-%.2f) vs baseline median %.2f (+%.1f%%, tolerance %.0f%%)",
				r.Name, basis, cur.Estimate, cur.Lo, cur.Hi, old, 100*(cur.Lo/old-1), 100*tolerance)
		}
	}
	return nil, nil
}
