package mc

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

func mustRun(t *testing.T, p *workload.Problem, params core.Params, opt Options) *Ensemble {
	t.Helper()
	e, err := Run(p, params, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e
}

func testProblem(t testing.TB) *workload.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g, err := topo.Random(rng, 20, 3, 5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func quickParams(p *workload.Problem) core.Params {
	return core.ParamsPractical(p.C, p.L(), p.N(),
		core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
}

func TestEnsembleAllSucceed(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, quickParams(p), Options{Trials: 12})
	if len(e.Trials) != 12 {
		t.Fatalf("trials = %d", len(e.Trials))
	}
	if got := e.SuccessRate(); got != 1.0 {
		t.Errorf("success rate = %g, want 1.0", got)
	}
	if e.TotalUnsafe() != 0 {
		t.Errorf("unsafe deflections = %d", e.TotalUnsafe())
	}
	if lo, p50, p99 := e.StepsQuantile(0), e.StepsQuantile(0.5), e.StepsQuantile(0.99); lo <= 0 || p50 < lo || p99 < p50 {
		t.Errorf("quantiles inconsistent: min=%g p50=%g p99=%g", lo, p50, p99)
	}
	if !strings.Contains(e.String(), "success=1.000") {
		t.Errorf("String = %q", e.String())
	}
}

func TestEnsembleTrialsInSeedOrder(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, quickParams(p), Options{Trials: 8, BaseSeed: 100})
	for i, tr := range e.Trials {
		if tr.Seed != int64(100+i) {
			t.Errorf("trial %d has seed %d", i, tr.Seed)
		}
	}
}

func TestEnsembleDeterministicAcrossWorkerCounts(t *testing.T) {
	p := testProblem(t)
	params := quickParams(p)
	a := mustRun(t, p, params, Options{Trials: 6, Workers: 1})
	b := mustRun(t, p, params, Options{Trials: 6, Workers: 4})
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Errorf("trial %d differs across worker counts: %+v vs %+v", i, a.Trials[i], b.Trials[i])
		}
	}
}

func TestRunOptionValidation(t *testing.T) {
	p := testProblem(t)
	params := quickParams(p)
	cases := []struct {
		name    string
		opt     Options
		wantErr bool
	}{
		{"defaults", Options{Trials: 1}, false},
		{"workers-clamped-to-trials", Options{Trials: 2, Workers: 64}, false},
		{"zero-workers-means-gomaxprocs", Options{Trials: 1, Workers: 0}, false},
		{"negative-workers", Options{Trials: 1, Workers: -1}, true},
		{"very-negative-workers", Options{Trials: 1, Workers: -100}, true},
		{"seed-overflow", Options{Trials: 2, BaseSeed: math.MaxInt64}, true},
		{"seed-overflow-boundary", Options{Trials: 3, BaseSeed: math.MaxInt64 - 1}, true},
		{"seed-at-limit", Options{Trials: 2, BaseSeed: math.MaxInt64 - 1}, false},
		{"negative-base-seed-ok", Options{Trials: 2, BaseSeed: -5}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := Run(p, params, c.opt)
			if c.wantErr {
				if err == nil {
					t.Fatalf("Run(%+v) succeeded, want error", c.opt)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run(%+v): %v", c.opt, err)
			}
			if len(e.Trials) != max(c.opt.Trials, 1) {
				t.Errorf("trials = %d, want %d", len(e.Trials), c.opt.Trials)
			}
			for i, tr := range e.Trials {
				if tr.Seed != c.opt.BaseSeed+int64(i) {
					t.Errorf("trial %d seed = %d, want %d", i, tr.Seed, c.opt.BaseSeed+int64(i))
				}
			}
		})
	}
}

// Engine reuse across trials (one Runner per worker) must be invisible
// in the results: identical trials to rebuilding the engine per seed.
func TestEnsembleReuseMatchesFreshEngines(t *testing.T) {
	p := testProblem(t)
	params := quickParams(p)
	reused := mustRun(t, p, params, Options{Trials: 6})
	fresh := mustRun(t, p, params, Options{Trials: 6, FreshEngines: true})
	for i := range reused.Trials {
		if reused.Trials[i] != fresh.Trials[i] {
			t.Errorf("trial %d differs with engine reuse: %+v vs %+v",
				i, reused.Trials[i], fresh.Trials[i])
		}
	}
}

func TestEnsembleBudgetFailure(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, quickParams(p), Options{Trials: 4, MaxSteps: 5})
	if e.SuccessRate() != 0 {
		t.Errorf("success rate = %g with 5-step budget", e.SuccessRate())
	}
	if e.StepsQuantile(0.5) != -1 {
		t.Errorf("quantile of empty successes = %g", e.StepsQuantile(0.5))
	}
}

func TestEnsembleDefaults(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, quickParams(p), Options{Trials: 1})
	if len(e.Trials) != 1 {
		t.Errorf("trials = %d", len(e.Trials))
	}
	bound := e.PaperSuccessBound()
	if bound <= 0.99 || bound >= 1 {
		t.Errorf("paper bound = %g", bound)
	}
}

func TestExcitedSuccessRate(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, quickParams(p), Options{Trials: 8})
	episodes := 0
	for _, tr := range e.Trials {
		if tr.ExcitedSuccesses < 0 || tr.ExcitedFailures < 0 {
			t.Fatalf("negative excitation counters: %+v", tr)
		}
		episodes += tr.ExcitedSuccesses + tr.ExcitedFailures
	}
	r := e.ExcitedSuccessRate()
	if episodes == 0 {
		if r != -1 {
			t.Errorf("rate with no episodes = %g, want -1", r)
		}
		return
	}
	if r < 0 || r > 1 {
		t.Errorf("excited success rate = %g, want within [0,1]", r)
	}
}

func TestEnsembleRecordWindow(t *testing.T) {
	p := testProblem(t)
	// Without RecordWindow the field stays zero.
	off := mustRun(t, p, quickParams(p), Options{Trials: 4})
	if off.MaxWindowWidth() != 0 {
		t.Errorf("MaxWindowWidth = %d without RecordWindow", off.MaxWindowWidth())
	}
	on := mustRun(t, p, quickParams(p), Options{Trials: 4, RecordWindow: true})
	w := on.MaxWindowWidth()
	depth := p.L()
	if w <= 0 || w > depth+1 {
		t.Fatalf("MaxWindowWidth = %d outside (0, %d]", w, depth+1)
	}
	// The schedule's narrow-band guarantee is what the window probe
	// evidences: on this depth-20 network the active band must exclude
	// levels, i.e. stay strictly below full depth.
	if w > depth {
		t.Errorf("MaxWindowWidth = %d: no level was ever skippable (depth %d)", w, depth)
	}
	for _, tr := range on.Trials {
		if tr.MaxWindowWidth <= 0 {
			t.Errorf("seed %d: MaxWindowWidth = %d, want > 0", tr.Seed, tr.MaxWindowWidth)
		}
	}
	// Workers must not change the per-trial record (determinism).
	par := mustRun(t, p, quickParams(p), Options{Trials: 4, RecordWindow: true, Workers: 4})
	for i := range on.Trials {
		if on.Trials[i].MaxWindowWidth != par.Trials[i].MaxWindowWidth {
			t.Errorf("seed %d: MaxWindowWidth %d (workers=auto) vs %d (workers=4)",
				on.Trials[i].Seed, on.Trials[i].MaxWindowWidth, par.Trials[i].MaxWindowWidth)
		}
	}
}
