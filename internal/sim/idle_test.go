package sim_test

import (
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// spacedPlanner releases packets in pairs, idleGap steps apart (packets
// 2k and 2k+1 at step idleGap·k), so a run alternates short busy
// stretches — two packets in flight, possibly contending — with long
// idle gaps. It counts its EndStep calls, which is how the tests see
// whether Run executed a step or fast-forwarded over it.
type spacedPlanner struct {
	*baselines.Greedy
	endSteps int
}

func (*spacedPlanner) OnDeflect(int, *sim.Packet, graph.EdgeID, sim.DeflectKind) {}
func (*spacedPlanner) OnAbsorb(int, *sim.Packet)                                 {}

const idleGap = 100

func (s *spacedPlanner) WantInject(t int, p *sim.Packet) bool { return t >= s.InjectStep(p) }
func (s *spacedPlanner) InjectStep(p *sim.Packet) int         { return idleGap * (int(p.ID) / 2) }
func (s *spacedPlanner) EndStep(int, *sim.Engine)             { s.endSteps++ }

// idleBudget comfortably exceeds every spaced run's makespan.
const idleBudget = 1 << 20

// newIdleEngine builds an engine for the spaced planner on the butterfly
// matrix problem (64 packets, so 32 releases across about 3200 steps).
// With planned false the recorder hides the planner's InjectStep.
func newIdleEngine(tb testing.TB, seed int64, planned bool) (*sim.Engine, *spacedPlanner, *recorder) {
	tb.Helper()
	sp := &spacedPlanner{Greedy: baselines.NewGreedy()}
	router, rec := wrapRecorder(sp)
	if !planned {
		router = rec
	}
	e := sim.NewEngine(idleProblem(tb), router, seed)
	return e, sp, rec
}

func idleProblem(tb testing.TB) *workload.Problem {
	tb.Helper()
	return matrixProblems(tb)["butterfly"]
}

// idleReference is the fast-forwarded run to completion: its metrics,
// full trace and executed step count.
func idleReference(t *testing.T, seed int64) (sim.Metrics, string, int) {
	t.Helper()
	e, sp, rec := newIdleEngine(t, seed, true)
	if _, done := e.Run(idleBudget); !done {
		t.Fatal("reference run did not complete")
	}
	return e.M, finalTrace(e, rec), sp.endSteps
}

// TestIdleSkipEngages: a spaced run spends most of its steps with
// nothing in flight, and Run must fast-forward over them — far fewer
// executed steps (EndStep calls) than simulated ones.
func TestIdleSkipEngages(t *testing.T) {
	m, _, executed := idleReference(t, 3)
	if m.Steps < 30*idleGap {
		t.Fatalf("spaced run took %d steps, want at least %d", m.Steps, 30*idleGap)
	}
	if executed*4 > m.Steps {
		t.Errorf("Run executed %d of %d steps; the idle gaps were not skipped", executed, m.Steps)
	}
}

// TestIdleSkipDisabledByHooks: an observer, probe or event sink must
// see every step, and a router without an InjectStep bound has no
// release schedule, so each disables the fast-forward — EndStep runs
// once per simulated step — and the run is otherwise identical to the
// skipping one.
func TestIdleSkipDisabledByHooks(t *testing.T) {
	const seed = 3
	wantM, wantTr, _ := idleReference(t, seed)
	for _, tc := range []struct {
		name   string
		attach func(e *sim.Engine)
	}{
		{"observer", func(e *sim.Engine) { e.AddObserver(func(int, *sim.Engine) {}) }},
		{"probe", func(e *sim.Engine) { e.AttachProbe(nopProbe{}) }},
		{"events", func(e *sim.Engine) { e.AttachEventSink(nopSink{}) }},
		{"unplanned", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, sp, rec := newIdleEngine(t, seed, tc.attach != nil)
			if tc.attach != nil {
				tc.attach(e)
			}
			sp.endSteps = 0
			if _, done := e.Run(idleBudget); !done {
				t.Fatal("run did not complete")
			}
			if sp.endSteps != e.M.Steps {
				t.Errorf("EndStep ran %d times over %d steps; want one per step", sp.endSteps, e.M.Steps)
			}
			if e.M != wantM {
				t.Errorf("metrics differ from the skipping run:\n got %+v\nwant %+v", e.M, wantM)
			}
			if finalTrace(e, rec) != wantTr {
				t.Error("trace differs from the skipping run")
			}
		})
	}
}

type nopProbe struct{}

func (nopProbe) OnStep(*sim.Engine, *sim.StepSnapshot) {}

type nopSink struct{}

func (nopSink) RecordEvent(int, sim.PacketID, sim.EventKind, int32) {}

// TestIdleSkipRunStopsInGap: a step budget that ends inside an idle gap
// stops the clock exactly there — Run reports (maxSteps, false) and
// Metrics.Steps counts the skipped steps.
func TestIdleSkipRunStopsInGap(t *testing.T) {
	e, sp, _ := newIdleEngine(t, 3, true)
	const stop = 2*idleGap + idleGap/2
	steps, done := e.Run(stop)
	if steps != stop || done {
		t.Fatalf("Run(%d) = (%d, %v), want (%d, false)", stop, steps, done, stop)
	}
	if e.M.Steps != stop || e.Now() != stop {
		t.Errorf("M.Steps = %d, Now() = %d, want both %d", e.M.Steps, e.Now(), stop)
	}
	if e.InFlight() != 0 {
		t.Fatalf("%d packets in flight at step %d; the stop is not inside a gap", e.InFlight(), stop)
	}
	if sp.endSteps >= stop/2 {
		t.Errorf("Run executed %d of %d steps; the gaps were not skipped", sp.endSteps, stop)
	}
}

// TestIdleSkipSplitRunMatchesSingle: Run(k) followed by Run(n) commits
// the same run as one Run(n), for k in a gap, at a release step, one
// step either side of it, and inside a busy stretch.
func TestIdleSkipSplitRunMatchesSingle(t *testing.T) {
	const seed = 5
	wantM, wantTr, _ := idleReference(t, seed)
	for _, k := range []int{1, 3, idleGap / 2, idleGap - 1, idleGap, idleGap + 1, idleGap + 3, 10*idleGap + 50} {
		e, _, rec := newIdleEngine(t, seed, true)
		e.Run(k)
		if _, done := e.Run(idleBudget); !done {
			t.Fatalf("k=%d: split run did not complete", k)
		}
		if e.M != wantM {
			t.Errorf("k=%d: metrics differ:\n got %+v\nwant %+v", k, e.M, wantM)
		}
		if finalTrace(e, rec) != wantTr {
			t.Errorf("k=%d: trace differs from the single run", k)
		}
	}
}

// TestIdleSkipResetMidGap: resetting an engine stopped inside a gap
// rewinds the clock and reproduces a fresh run exactly.
func TestIdleSkipResetMidGap(t *testing.T) {
	const seed = 7
	wantM, wantTr, wantExecuted := idleReference(t, seed)
	e, sp, rec := newIdleEngine(t, 11, true)
	e.Run(4*idleGap + idleGap/2)
	e.Reset(seed)
	if e.Now() != 0 || e.M.Steps != 0 {
		t.Fatalf("after Reset: Now() = %d, M.Steps = %d, want 0", e.Now(), e.M.Steps)
	}
	rec.log.Reset()
	sp.endSteps = 0
	if _, done := e.Run(idleBudget); !done {
		t.Fatal("run after Reset did not complete")
	}
	if e.M != wantM {
		t.Errorf("metrics differ after Reset:\n got %+v\nwant %+v", e.M, wantM)
	}
	if finalTrace(e, rec) != wantTr {
		t.Error("trace differs after Reset")
	}
	if sp.endSteps != wantExecuted {
		t.Errorf("executed %d steps after Reset, fresh run executed %d", sp.endSteps, wantExecuted)
	}
}

// releasePlanner releases packet i at step release[i].
type releasePlanner struct {
	*baselines.Greedy
	release []int
}

func (r *releasePlanner) WantInject(t int, p *sim.Packet) bool { return t >= r.InjectStep(p) }
func (r *releasePlanner) InjectStep(p *sim.Packet) int         { return r.release[p.ID] }

// TestIdleSkipWaitsOutForwardMemory: the fast-forward must not start
// while the previous step's forward traversals are still live, or the
// first step after the gap would see them as safe backward slots. On
// a -> m -> x, packet 0 crosses a->m at step 0 and is absorbed at m;
// packet 1 starts at m at step 5, finds m->x down and must be deflected
// back over a->m. That edge was traversed forward five steps earlier,
// not in the previous step, so the deflection is an unsafe backward one
// — with the skip as without it.
func TestIdleSkipWaitsOutForwardMemory(t *testing.T) {
	b := graph.NewBuilder("idle-memory")
	a := b.AddNode(0, "a")
	m := b.AddNode(1, "m")
	x := b.AddNode(2, "x")
	eam := b.AddEdge(a, m)
	emx := b.AddEdge(m, x)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := &workload.Problem{Name: "idle-memory", G: g, Set: paths.NewPathSet(g, []graph.Path{{eam}, {emx}}), C: 1, D: 1}
	const release = 5
	for _, stepped := range []bool{false, true} {
		e := sim.NewEngine(p, &releasePlanner{Greedy: baselines.NewGreedy(), release: []int{0, release}}, 1)
		e.Faults = func(ed graph.EdgeID, t int) bool { return ed == emx && t == release }
		if stepped {
			e.AddObserver(func(int, *sim.Engine) {})
		}
		if _, done := e.Run(100); !done {
			t.Fatalf("stepped=%v: run did not complete", stepped)
		}
		if got := e.M.Deflections; got != [4]int{sim.DeflectUnsafeBackward: 1} {
			t.Errorf("stepped=%v: deflections by kind %v, want one unsafe backward", stepped, got)
		}
	}
}
