package mc

import (
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/faults"
	"hotpotato/internal/sim"
)

func greedyFactory() func() sim.Router {
	return func() sim.Router { return baselines.NewGreedy() }
}

// TestRouterModeRuns: the Router option runs trials on a plain engine
// with the given router; healthy greedy on a small instance delivers
// everything within the budget.
func TestRouterModeRuns(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, core.Params{}, Options{
		Trials: 6, Router: greedyFactory(), MaxSteps: 100000,
	})
	if len(e.Trials) != 6 {
		t.Fatalf("trials = %d", len(e.Trials))
	}
	for i, tr := range e.Trials {
		if !tr.Done {
			t.Errorf("trial %d not done in budget", i)
		}
		if tr.Absorbed != p.N() {
			t.Errorf("trial %d absorbed %d of %d packets", i, tr.Absorbed, p.N())
		}
		if tr.Steps <= 0 {
			t.Errorf("trial %d steps = %d", i, tr.Steps)
		}
	}
}

// TestRouterModeDeterministicAcrossWorkerCounts mirrors the frame-path
// guarantee: worker scheduling must not leak into trial results.
func TestRouterModeDeterministicAcrossWorkerCounts(t *testing.T) {
	p := testProblem(t)
	opt := Options{Trials: 6, Router: greedyFactory(), MaxSteps: 100000, BaseSeed: 11}
	a := mustRun(t, p, core.Params{}, opt)
	opt.Workers = 4
	b := mustRun(t, p, core.Params{}, opt)
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Errorf("trial %d differs across worker counts: %+v vs %+v", i, a.Trials[i], b.Trials[i])
		}
	}
}

// TestRouterModeEngineReuse: per-worker engine reuse (Reset between
// seeds) must match fresh single-trial runs.
func TestRouterModeEngineReuse(t *testing.T) {
	p := testProblem(t)
	reused := mustRun(t, p, core.Params{}, Options{
		Trials: 5, Router: greedyFactory(), MaxSteps: 100000, BaseSeed: 3, Workers: 1,
	})
	for i := range reused.Trials {
		fresh := mustRun(t, p, core.Params{}, Options{
			Trials: 1, Router: greedyFactory(), MaxSteps: 100000, BaseSeed: 3 + int64(i),
		})
		if reused.Trials[i] != fresh.Trials[0] {
			t.Errorf("seed %d: reused %+v, fresh %+v", 3+i, reused.Trials[i], fresh.Trials[0])
		}
	}
}

// TestRouterModeFaults: a severe fault model must show up in the
// packet-level accounting (Absorbed below N or fault stalls observed).
func TestRouterModeFaults(t *testing.T) {
	p := testProblem(t)
	fc, err := faults.Parse("flap:period=20,down=10,rate=0.5")
	if err != nil {
		t.Fatal(err)
	}
	e := mustRun(t, p, core.Params{}, Options{
		Trials: 4, Router: greedyFactory(), MaxSteps: 2000, Faults: fc,
	})
	touched := 0
	for _, tr := range e.Trials {
		if tr.FaultBlocked > 0 || tr.FaultStalls > 0 {
			touched++
		}
		if tr.Absorbed > p.N() {
			t.Errorf("absorbed %d exceeds %d packets", tr.Absorbed, p.N())
		}
	}
	if touched == 0 {
		t.Error("aggressive fault model left no trace in any trial")
	}
}

// TestRouterModeValidation: router mode needs an explicit budget and
// is incompatible with the frame-only options.
func TestRouterModeValidation(t *testing.T) {
	p := testProblem(t)
	cases := map[string]Options{
		"missing max steps": {Trials: 1, Router: greedyFactory()},
		"record window":     {Trials: 1, Router: greedyFactory(), MaxSteps: 100, RecordWindow: true},
	}
	for name, opt := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Run(p, core.Params{}, opt); err == nil {
				t.Fatalf("Run(%+v) succeeded, want error", opt)
			}
		})
	}
}

// TestFramePathAbsorbed: the frame path fills the new Absorbed field
// too — a complete trial absorbs every packet.
func TestFramePathAbsorbed(t *testing.T) {
	p := testProblem(t)
	e := mustRun(t, p, quickParams(p), Options{Trials: 3})
	for i, tr := range e.Trials {
		if tr.Done && tr.Absorbed != p.N() {
			t.Errorf("trial %d done but absorbed %d of %d", i, tr.Absorbed, p.N())
		}
	}
}
