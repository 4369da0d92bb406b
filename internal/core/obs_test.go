package core

import (
	"testing"

	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// TestExcitedPriorityMatchesEngine pins the cross-package contract:
// the engine counts StepSnapshot.Excited as requests at or above
// sim.ExcitedPriority, and the frame router's excited state must map
// to exactly that priority (with its other priorities strictly below).
func TestExcitedPriorityMatchesEngine(t *testing.T) {
	if prioExcited != sim.ExcitedPriority {
		t.Fatalf("prioExcited = %d, sim.ExcitedPriority = %d; the engine's excitation census is wrong", prioExcited, sim.ExcitedPriority)
	}
	if prioWait >= sim.ExcitedPriority || prioNormal >= sim.ExcitedPriority {
		t.Fatalf("non-excited priorities (%d, %d) reach the excitation threshold %d", prioWait, prioNormal, sim.ExcitedPriority)
	}
}

// TestRunOptionsObsWiring: RunOptions.Probes sees a flushed trailing
// window and the excite/restore events balance per packet.
func TestRunOptionsObsWiring(t *testing.T) {
	p, err := workload.MeshHard(6)
	if err != nil {
		t.Fatal(err)
	}
	params := ParamsPractical(p.C, p.L(), p.N(),
		PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	ts := &obs.TimeSeries{}
	ring := obs.NewLifecycle(1 << 16)
	res := Run(p, params, RunOptions{Seed: 3, Probes: []obs.Probe{ts}, Events: ring})
	if !res.Done {
		t.Fatal("run did not complete")
	}
	if len(ts.Steps) != res.Steps {
		t.Fatalf("step rows = %d, steps = %d", len(ts.Steps), res.Steps)
	}
	if len(ts.Phases) == 0 {
		t.Fatal("no phase rows; Flush not wired")
	}
	last := ts.Phases[len(ts.Phases)-1]
	if last.Step != res.Steps-1 {
		t.Errorf("trailing phase window ends at step %d, run ended at %d", last.Step, res.Steps-1)
	}

	// Per packet: excites and restores alternate, starting with excite,
	// and balance out by the end (every episode is closed by a restore —
	// target, deflection, boundary reset, or absorption).
	open := map[sim.PacketID]bool{}
	excites, restores := 0, 0
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case sim.EventExcite:
			if open[ev.Packet] {
				t.Fatalf("packet %d excited twice without a restore (t=%d)", ev.Packet, ev.Step)
			}
			open[ev.Packet] = true
			excites++
		case sim.EventRestore:
			if !open[ev.Packet] {
				t.Fatalf("packet %d restored without an open excitation (t=%d)", ev.Packet, ev.Step)
			}
			open[ev.Packet] = false
			restores++
		}
	}
	for pid, o := range open {
		if o {
			t.Errorf("packet %d's excitation episode never closed", pid)
		}
	}
	if excites != restores {
		t.Errorf("%d excites vs %d restores", excites, restores)
	}
	if excites != res.Router.Excitations {
		t.Errorf("event stream saw %d excitations, router stats %d", excites, res.Router.Excitations)
	}
}
