// Package mc runs Monte-Carlo ensembles of routing experiments in
// parallel across CPU cores: many seeds of the same problem, aggregated
// into completion-probability and latency-distribution estimates. The
// paper's guarantee is probabilistic (success w.p. >= 1 - 1/LN);
// ensembles are how a simulation speaks to such claims.
package mc

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"hotpotato/internal/core"
	"hotpotato/internal/faults"
	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
	"hotpotato/internal/workload"
)

// Trial is the outcome of one seeded run.
type Trial struct {
	Seed     int64
	Steps    int
	Done     bool
	Deflects int
	Unsafe   int
	// Absorbed is the number of packets delivered within budget — the
	// packet-level complement of Done (Done ⇔ Absorbed == N). Campaign
	// drop rates under faults are computed from it, so a run that
	// delivers 95% of its packets before exhausting its budget is not
	// accounted like one that delivered none.
	Absorbed int
	// ExcitedSuccesses / ExcitedFailures split the run's excitation
	// episodes by outcome (reached target vs deflected or timed out at a
	// round/phase boundary). Lemma 4.3 lower-bounds the per-episode
	// success chance by 1/2e under the paper's q.
	ExcitedSuccesses int
	ExcitedFailures  int
	// FaultBlocked / FaultStalls carry the run's degradation counters
	// when the ensemble ran under a fault campaign (zero otherwise).
	FaultBlocked int
	FaultStalls  int
	// MaxWindowWidth is the widest measured active level band of the
	// run (Options.RecordWindow; zero otherwise). Under invariant Ic it
	// is bounded by the schedule's ActiveBand width, so an ensemble-wide
	// maximum far below depth+1 is the evidence that active-frame level
	// skipping had levels to skip.
	MaxWindowWidth int
}

// Ensemble aggregates many trials of the frame router on one problem.
type Ensemble struct {
	Problem *workload.Problem
	Params  core.Params
	Trials  []Trial
}

// Options configure an ensemble run.
type Options struct {
	// Trials is the number of seeds (>= 1; default 32).
	Trials int
	// BaseSeed offsets the seed sequence (trial i uses BaseSeed + i).
	// BaseSeed + Trials - 1 must not overflow int64.
	BaseSeed int64
	// MaxSteps caps each run (0 = 4x schedule bound).
	MaxSteps int
	// Workers bounds parallelism (0 = GOMAXPROCS; negative is
	// rejected). Workers beyond Trials are clamped to Trials.
	Workers int
	// FreshEngines rebuilds the engine for every trial instead of
	// resetting one reusable engine per worker — the pre-reuse
	// behavior, kept for benchmarking the reuse gain (see
	// the ensemble row of bench.Run("engine", ...)).
	FreshEngines bool
	// Observe, when non-nil, supplies per-trial observability probes:
	// it is called once per trial with that trial's seed, and the
	// returned probes receive the run's annotated series
	// (core.RunOptions.Probes semantics). Trials run concurrently, so
	// Observe must be safe for concurrent calls and the probes of
	// different trials must not share state.
	Observe func(seed int64) []obs.Probe
	// RecordWindow attaches a per-trial probe recording the widest
	// measured active level band into Trial.MaxWindowWidth. Off by
	// default: it routes every trial through the observability
	// collector, which costs a few percent of step throughput.
	RecordWindow bool
	// Faults, when non-nil, runs every trial under this fault campaign,
	// bound per trial as Faults.Model(problem.G, seed) — each seed sees
	// an independent (but reproducible) realization of the same
	// scenario. The campaign's Model must be safe for concurrent calls,
	// which every campaign in internal/faults is (pure values).
	Faults faults.Campaign
	// Router, when non-nil, runs each trial on the plain hot-potato
	// engine with a router from this factory instead of the frame
	// algorithm — the campaign layer's baseline axis. Each worker keeps
	// one engine (built from one factory call, rewound per seed via
	// Engine.Reset, which re-Inits the router), so the factory must
	// return routers whose entire per-run state lives in Init. MaxSteps
	// must be set explicitly: baselines have no schedule to derive a
	// budget from. Check, Observe and RecordWindow require the frame
	// router's schedule and are rejected in this mode.
	Router func() sim.Router
}

// Run executes the ensemble, fanning trials out over a worker pool.
// Each worker keeps one reusable engine (core.Runner) and rewinds it
// per seed, so trial cost excludes engine construction. Trials are
// returned in seed order regardless of completion order.
func Run(p *workload.Problem, params core.Params, opt Options) (*Ensemble, error) {
	if opt.Trials < 1 {
		opt.Trials = 32
	}
	if opt.Workers < 0 {
		return nil, fmt.Errorf("mc: negative Workers %d", opt.Workers)
	}
	if opt.BaseSeed > math.MaxInt64-int64(opt.Trials-1) {
		return nil, fmt.Errorf("mc: BaseSeed %d + %d trials overflows int64", opt.BaseSeed, opt.Trials)
	}
	if opt.Router != nil {
		if opt.MaxSteps <= 0 {
			return nil, fmt.Errorf("mc: Router mode needs an explicit MaxSteps budget")
		}
		if opt.Observe != nil || opt.RecordWindow {
			return nil, fmt.Errorf("mc: Observe/RecordWindow need the frame schedule; unsupported with Router")
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opt.Trials {
		workers = opt.Trials
	}

	trials := make([]Trial, opt.Trials)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if opt.Router != nil {
				eng := sim.NewEngine(p, opt.Router(), 1)
				for i := range jobs {
					trials[i] = runRouterTrial(p, eng, opt, opt.BaseSeed+int64(i))
				}
				return
			}
			var runner *core.Runner
			if !opt.FreshEngines {
				runner = core.NewRunner(p, params, 1, 0)
			}
			for i := range jobs {
				seed := opt.BaseSeed + int64(i)
				ro := core.RunOptions{
					Seed:     seed,
					MaxSteps: opt.MaxSteps,
				}
				if opt.Observe != nil {
					ro.Probes = opt.Observe(seed)
				}
				var wp *windowProbe
				if opt.RecordWindow {
					wp = &windowProbe{}
					ro.Probes = append(ro.Probes, wp)
				}
				if opt.Faults != nil {
					ro.Faults = opt.Faults.Model(p.G, seed)
				}
				var res *core.Result
				if runner != nil {
					res = runner.Run(ro)
				} else {
					res = core.Run(p, params, ro)
				}
				t := Trial{
					Seed:             seed,
					Steps:            res.Steps,
					Done:             res.Done,
					Absorbed:         res.Engine.Absorbed,
					Deflects:         res.Engine.TotalDeflections(),
					Unsafe:           res.Engine.UnsafeDeflections(),
					ExcitedSuccesses: res.Router.ExcitedSuccesses,
					ExcitedFailures:  res.Router.ExcitedFailures,
					FaultBlocked:     res.Engine.FaultBlocked,
					FaultStalls:      res.Engine.FaultStalls,
				}
				if wp != nil {
					t.MaxWindowWidth = wp.maxWidth
				}
				trials[i] = t
			}
		}()
	}
	for i := 0; i < opt.Trials; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return &Ensemble{Problem: p, Params: params, Trials: trials}, nil
}

// runRouterTrial runs one seeded baseline trial on the worker's reused
// engine. Reset re-seeds the RNG and re-Inits the router, so the trial
// is identical to one on a freshly built engine.
func runRouterTrial(p *workload.Problem, eng *sim.Engine, opt Options, seed int64) Trial {
	eng.Reset(seed)
	if opt.Faults != nil {
		eng.Faults = opt.Faults.Model(p.G, seed)
	} else {
		eng.Faults = nil
	}
	steps, done := eng.Run(opt.MaxSteps)
	return Trial{
		Seed:         seed,
		Steps:        steps,
		Done:         done,
		Absorbed:     eng.M.Absorbed,
		Deflects:     eng.M.TotalDeflections(),
		Unsafe:       eng.M.UnsafeDeflections(),
		FaultBlocked: eng.M.FaultBlocked,
		FaultStalls:  eng.M.FaultStalls,
	}
}

// windowProbe records the widest measured active level band of one
// run. Single-trial state, not shared across goroutines.
type windowProbe struct{ maxWidth int }

func (w *windowProbe) OnStep(s *obs.StepStats) {
	if wd := s.WindowHi - s.WindowLo + 1; wd > w.maxWidth {
		w.maxWidth = wd
	}
}
func (*windowProbe) OnRound(*obs.StepStats) {}
func (*windowProbe) OnPhase(*obs.StepStats) {}

// MaxWindowWidth returns the widest active level band measured across
// all trials, or 0 if the ensemble ran without Options.RecordWindow.
func (e *Ensemble) MaxWindowWidth() int {
	m := 0
	for _, t := range e.Trials {
		if t.MaxWindowWidth > m {
			m = t.MaxWindowWidth
		}
	}
	return m
}

// SuccessRate returns the fraction of trials that delivered every
// packet within budget.
func (e *Ensemble) SuccessRate() float64 {
	if len(e.Trials) == 0 {
		return 0
	}
	ok := 0
	for _, t := range e.Trials {
		if t.Done {
			ok++
		}
	}
	return float64(ok) / float64(len(e.Trials))
}

// PaperSuccessBound returns the paper's guarantee 1 - 1/LN for the
// ensemble's problem (Theorem 4.26; the guarantee is for proof-grade
// parameters — practical runs are compared against it in E11).
func (e *Ensemble) PaperSuccessBound() float64 {
	ln := float64(e.Problem.L()) * float64(e.Problem.N())
	if ln <= 1 {
		return 0
	}
	return 1 - 1/ln
}

// TotalUnsafe sums unsafe deflections across all trials (Lemma 2.1
// predicts zero).
func (e *Ensemble) TotalUnsafe() int {
	s := 0
	for _, t := range e.Trials {
		s += t.Unsafe
	}
	return s
}

// ExcitedSuccessRate returns the fraction of excitation episodes
// across all trials that ended in success, or -1 if no episodes
// occurred. Lemma 4.3 predicts at least 1/2e ≈ 0.184 under the
// paper's q; a phase-boundary accounting bug that drops failures
// inflates this estimate, which is why the counters are carried
// per-trial.
func (e *Ensemble) ExcitedSuccessRate() float64 {
	succ, total := 0, 0
	for _, t := range e.Trials {
		succ += t.ExcitedSuccesses
		total += t.ExcitedSuccesses + t.ExcitedFailures
	}
	if total == 0 {
		return -1
	}
	return float64(succ) / float64(total)
}

// StepsQuantile returns the q-quantile of completion steps among
// successful trials, or -1 if none succeeded.
func (e *Ensemble) StepsQuantile(q float64) float64 {
	var xs []float64
	for _, t := range e.Trials {
		if t.Done {
			xs = append(xs, float64(t.Steps))
		}
	}
	if len(xs) == 0 {
		return -1
	}
	sort.Float64s(xs)
	return stats.Quantile(xs, q)
}

// String summarizes the ensemble.
func (e *Ensemble) String() string {
	return fmt.Sprintf("ensemble(%s, %d trials): success=%.3f (paper bound %.4f) steps p50=%.0f p99=%.0f unsafe=%d",
		e.Problem.Name, len(e.Trials), e.SuccessRate(), e.PaperSuccessBound(),
		e.StepsQuantile(0.5), e.StepsQuantile(0.99), e.TotalUnsafe())
}
