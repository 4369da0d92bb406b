package sim_test

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// censusProbe keeps a copy of every snapshot it is handed.
type censusProbe struct{ snaps []sim.StepSnapshot }

func (c *censusProbe) OnStep(_ *sim.Engine, s *sim.StepSnapshot) {
	cp := *s
	cp.Occupancy = slices.Clone(s.Occupancy)
	c.snaps = append(c.snaps, cp)
}

// TestAttachProbeChains pins the composability contract of
// AttachProbe: a second probe chains after the first instead of
// replacing it, so both see every step with the same census; and
// attachments are per-run, so Reset detaches both.
func TestAttachProbeChains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := topo.Random(rng, 15, 2, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p, baselines.NewGreedy(), 2)
	a, b := &censusProbe{}, &censusProbe{}
	e.AttachProbe(a)
	e.AttachProbe(b)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	if len(a.snaps) != steps {
		t.Fatalf("first probe: %d snapshots, %d steps; the second attach replaced it", len(a.snaps), steps)
	}
	if len(b.snaps) != steps {
		t.Fatalf("second probe: %d snapshots, %d steps", len(b.snaps), steps)
	}
	for i, s := range a.snaps {
		o := b.snaps[i]
		if s.Step != o.Step || s.Active != o.Active || !slices.Equal(s.Occupancy, o.Occupancy) {
			t.Fatalf("snapshot %d differs between chained probes: %+v vs %+v", i, s, o)
		}
		sum := 0
		for _, c := range s.Occupancy {
			sum += c
		}
		if sum != s.Active {
			t.Fatalf("step %d: per-level sum %d != active %d", s.Step, sum, s.Active)
		}
	}
	// The last step absorbs the last packet.
	if last := a.snaps[steps-1]; last.Active != 0 {
		t.Errorf("final active = %d", last.Active)
	}

	e.Reset(2)
	if _, done := e.Run(100000); !done {
		t.Fatal("re-run did not complete")
	}
	if len(a.snaps) != steps || len(b.snaps) != steps {
		t.Errorf("probes kept sampling after Reset: %d, %d snapshots after %d", len(a.snaps), len(b.snaps), steps)
	}
}
