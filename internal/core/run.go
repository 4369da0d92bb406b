package core

import (
	"fmt"

	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
	"hotpotato/internal/workload"
)

// Result is a completed (or budget-exhausted) frame-routing run.
type Result struct {
	// Steps is the number of simulated steps, idle ones that the engine
	// fast-forwarded included; Done is whether every packet was
	// absorbed.
	Steps int
	Done  bool

	// Problem facts.
	C, D, L, N int

	// Params used.
	Params Params

	// Engine metrics, router stats and the invariant report (the
	// report is zero-valued when the run was started without checking).
	Engine     sim.Metrics
	Router     Stats
	Invariants InvariantReport

	// PaperBound is the step bound of Proposition 4.25 for these
	// parameters: (NumSets*M + L) * M * W.
	PaperBound int

	// Latency breakdown. A packet's completion splits into the wait for
	// its frame to arrive (injection time) and the in-network transit
	// (absorb - inject); the sum of the two maxima bounds Steps. The
	// schedule dominates: transit is small compared to injection wait.
	InjectWait stats.Summary // injection times
	Transit    stats.Summary // absorb - inject, per packet

	// Phases profiles the run phase by phase when RunOptions.Profile is
	// set (nil otherwise).
	Phases []PhaseStats
}

// PhaseStats is the per-phase slice of a profiled run.
type PhaseStats struct {
	Phase    int
	Injected int // packets injected during this phase
	Absorbed int // packets absorbed during this phase
	Active   int // active packets at phase end
	Waiting  int // of which in the wait state at phase end
}

// Ratio returns Steps normalized by C+L, the quantity Theorem 4.26
// bounds by a polylog.
func (r *Result) Ratio() float64 {
	return float64(r.Steps) / float64(r.C+r.L)
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("frame: steps=%d done=%v C=%d D=%d L=%d N=%d steps/(C+L)=%.1f defl/pkt=%.2f",
		r.Steps, r.Done, r.C, r.D, r.L, r.N, r.Ratio(),
		float64(r.Engine.TotalDeflections())/float64(r.N))
}

// RunOptions configure Run.
type RunOptions struct {
	// Seed for the engine RNG (set assignment, tie-breaking,
	// excitation).
	Seed int64
	// MaxSteps caps the run; 0 selects 4x the paper bound for the
	// parameters (generous slack for practical-parameter stragglers).
	MaxSteps int
	// Check attaches an InvariantChecker.
	Check bool
	// Observer, if non-nil, is attached to the engine (tracing).
	Observer sim.Observer
	// Probes, if non-empty, are attached through an obs.Collector
	// keyed to the router's schedule: each receives the annotated
	// per-step/per-round/per-phase series, with the trailing partial
	// round and phase flushed after the run.
	Probes []obs.Probe
	// Events, if non-nil, receives packet lifecycle events from both
	// the engine (inject/deflect/stall/absorb) and the frame router
	// (excite/restore).
	Events sim.EventSink
	// Profile records per-phase injection/absorption/wait counts into
	// Result.Phases.
	Profile bool
	// Faults, if non-nil, is installed as the engine's fault model for
	// this run (sim.Engine.Faults): a pure function of (edge, step)
	// marking edges down. Per-run — a Runner reused across seeds gets
	// exactly the model each RunOptions carries, nil clearing it.
	Faults sim.FaultModel
}

// Runner executes frame runs on one problem, reusing the engine and
// router across seeds through sim.Engine.Reset: the flat occupancy
// backing, path arena, slot scratch and the router's per-packet arrays all survive from run to run, so per-trial cost in
// an ensemble is the routing itself rather than setup. Not safe for
// concurrent use; Monte-Carlo callers keep one Runner per worker.
type Runner struct {
	p      *workload.Problem
	params Params
	router *Frame
	eng    *sim.Engine

	// waits/transits are the latency sample buffers, reused run to run
	// and summarized in place, so a run allocates no sample storage.
	waits, transits []float64
}

// NewRunner builds a reusable runner. The trailing pair of ints, once
// the parallel step's workers and shards, is ignored; the signature
// stays for existing callers.
func NewRunner(p *workload.Problem, params Params, _, _ int) *Runner {
	router := NewFrame(params)
	eng := sim.NewEngine(p, router, 0)
	return &Runner{p: p, params: params, router: router, eng: eng,
		waits: make([]float64, 0, p.N()), transits: make([]float64, 0, p.N())}
}

// Close is a no-op: a Runner holds no goroutines or other resources
// beyond memory. It stays for existing callers.
func (r *Runner) Close() {}

// Run executes one seeded run, rewinding the reused engine first. The
// RunOptions apply per run.
func (r *Runner) Run(opt RunOptions) *Result {
	r.eng.Reset(opt.Seed)
	return r.finish(opt)
}

// Run executes the frame algorithm on the problem and returns the
// result.
func Run(p *workload.Problem, params Params, opt RunOptions) *Result {
	r := NewRunner(p, params, 1, 0)
	r.eng.Reset(opt.Seed)
	return r.finish(opt)
}

func (r *Runner) finish(opt RunOptions) *Result {
	p, params, router, eng := r.p, r.params, r.router, r.eng
	// Reset does not touch Faults (it is engine configuration, not run
	// state), so install the per-run model explicitly every run.
	eng.Faults = opt.Faults
	var checker *InvariantChecker
	if opt.Check {
		checker = NewInvariantChecker(router)
		checker.Attach(eng)
	}
	if opt.Observer != nil {
		eng.AddObserver(opt.Observer)
	}
	var coll *obs.Collector
	if len(opt.Probes) > 0 {
		coll = obs.NewCollector(router.Schedule(), opt.Probes...)
		coll.Attach(eng)
	}
	if opt.Events != nil {
		eng.AttachEventSink(opt.Events)
		router.Events = opt.Events
	}
	var phases []PhaseStats
	if opt.Profile {
		sched := router.Schedule()
		prevInjected, prevAbsorbed := 0, 0
		eng.AddObserver(func(t int, e *sim.Engine) {
			if !sched.IsPhaseEnd(t) {
				return
			}
			_, _, waiting := router.StateCounts(e)
			phases = append(phases, PhaseStats{
				Phase:    sched.PhaseOf(t),
				Injected: e.M.Injected - prevInjected,
				Absorbed: e.M.Absorbed - prevAbsorbed,
				Active:   e.M.Injected - e.M.Absorbed,
				Waiting:  waiting,
			})
			prevInjected, prevAbsorbed = e.M.Injected, e.M.Absorbed
		})
	}
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 4 * params.TotalSteps(p.L())
	}
	steps, done := eng.Run(maxSteps)
	if coll != nil {
		coll.Flush()
	}
	res := &Result{
		Steps:      steps,
		Done:       done,
		C:          p.C,
		D:          p.D,
		L:          p.L(),
		N:          p.N(),
		Params:     params,
		Engine:     eng.M,
		Router:     router.S,
		PaperBound: params.TotalSteps(p.L()),
	}
	if checker != nil {
		res.Invariants = checker.Report
	}
	r.waits, r.transits = r.waits[:0], r.transits[:0]
	for i := range eng.Packets {
		pk := &eng.Packets[i]
		if pk.InjectTime >= 0 {
			r.waits = append(r.waits, float64(pk.InjectTime))
		}
		if pk.Absorbed {
			r.transits = append(r.transits, float64(pk.Latency()))
		}
	}
	res.InjectWait = stats.SummarizeInPlace(r.waits)
	res.Transit = stats.SummarizeInPlace(r.transits)
	res.Phases = phases
	return res
}
