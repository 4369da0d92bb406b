package core

import (
	"testing"
	"testing/quick"
)

func testSchedule() Schedule {
	return Schedule{Params{NumSets: 3, M: 5, W: 10, Q: 0.1}}
}

func TestScheduleTimeDivision(t *testing.T) {
	s := testSchedule() // phase = 50 steps, round = 10 steps
	cases := []struct {
		t, phase, round, inRound int
		roundEnd, phaseEnd       bool
	}{
		{0, 0, 0, 0, false, false},
		{9, 0, 0, 9, true, false},
		{10, 0, 1, 0, false, false},
		{49, 0, 4, 9, true, true},
		{50, 1, 0, 0, false, false},
		{149, 2, 4, 9, true, true},
	}
	for _, c := range cases {
		if got := s.PhaseOf(c.t); got != c.phase {
			t.Errorf("PhaseOf(%d) = %d, want %d", c.t, got, c.phase)
		}
		if got := s.RoundOf(c.t); got != c.round {
			t.Errorf("RoundOf(%d) = %d, want %d", c.t, got, c.round)
		}
		if got := s.StepInRound(c.t); got != c.inRound {
			t.Errorf("StepInRound(%d) = %d, want %d", c.t, got, c.inRound)
		}
		if got := s.IsRoundEnd(c.t); got != c.roundEnd {
			t.Errorf("IsRoundEnd(%d) = %v", c.t, got)
		}
		if got := s.IsPhaseEnd(c.t); got != c.phaseEnd {
			t.Errorf("IsPhaseEnd(%d) = %v", c.t, got)
		}
	}
}

func TestSchedulePhaseStart(t *testing.T) {
	s := testSchedule()
	for phase := 0; phase < 5; phase++ {
		start := s.PhaseStart(phase)
		if s.PhaseOf(start) != phase {
			t.Errorf("PhaseOf(PhaseStart(%d)) = %d", phase, s.PhaseOf(start))
		}
		if start > 0 && s.PhaseOf(start-1) != phase-1 {
			t.Errorf("step before PhaseStart(%d) in phase %d", phase, s.PhaseOf(start-1))
		}
	}
}

func TestScheduleFrontierPipelining(t *testing.T) {
	s := testSchedule()
	// At phase 0, frontier i = -i*M (paper Section 2.5 with the OCR'd
	// minus restored).
	for i := 0; i < 3; i++ {
		if got := s.Frontier(i, 0); got != -i*5 {
			t.Errorf("Frontier(%d, 0) = %d, want %d", i, got, -i*5)
		}
	}
	// Frontier advances one level per phase.
	for ph := 0; ph < 20; ph++ {
		if s.Frontier(1, ph+1)-s.Frontier(1, ph) != 1 {
			t.Errorf("frontier did not advance at phase %d", ph)
		}
	}
	// Frame i reaches level 0 at phase i*M.
	if s.Frontier(2, 10) != 0 {
		t.Errorf("Frontier(2, 10) = %d, want 0", s.Frontier(2, 10))
	}
	// Adjacent frames never overlap: back of frame i-1 is one above
	// frontier of frame i.
	for ph := 0; ph < 30; ph++ {
		for i := 1; i < 3; i++ {
			if s.FrameBack(i-1, ph) != s.Frontier(i, ph)+1 {
				t.Errorf("frames %d and %d overlap at phase %d", i-1, i, ph)
			}
		}
	}
}

func TestScheduleInFrameAndInnerLevel(t *testing.T) {
	s := testSchedule()
	set, phase := 1, 12 // frontier = 12 - 5 = 7, frame levels 3..7
	for lvl := 0; lvl < 12; lvl++ {
		want := lvl >= 3 && lvl <= 7
		if got := s.InFrame(set, phase, lvl); got != want {
			t.Errorf("InFrame(level %d) = %v, want %v", lvl, got, want)
		}
	}
	if s.InnerLevel(set, phase, 7) != 0 {
		t.Errorf("frontier must be inner 0")
	}
	if s.InnerLevel(set, phase, 3) != 4 {
		t.Errorf("back must be inner M-1")
	}
}

func TestScheduleTargets(t *testing.T) {
	s := testSchedule()
	if s.TargetInner(0) != 0 || s.TargetInner(1) != 0 {
		t.Error("rounds 0-1 must target inner 0")
	}
	for j := 2; j < 5; j++ {
		if s.TargetInner(j) != j-1 {
			t.Errorf("TargetInner(%d) = %d, want %d", j, s.TargetInner(j), j-1)
		}
	}
	// TargetLevel = frontier - targetInner.
	if s.TargetLevel(0, 10, 3) != 10-2 {
		t.Errorf("TargetLevel = %d", s.TargetLevel(0, 10, 3))
	}
}

func TestScheduleInjectionPhase(t *testing.T) {
	s := testSchedule()
	// Source at level sl is at inner M-1 when frontier = sl + M - 1,
	// i.e. phase = set*M + sl + M - 1.
	for set := 0; set < 3; set++ {
		for sl := 0; sl < 4; sl++ {
			ph := s.InjectionPhase(set, sl)
			if got := s.Frontier(set, ph); got != sl+s.P.M-1 {
				t.Errorf("set %d src %d: frontier at injection = %d, want %d", set, sl, got, sl+s.P.M-1)
			}
			if s.InnerLevel(set, ph, sl) != s.P.M-1 {
				t.Errorf("source not at inner M-1 at injection phase")
			}
		}
	}
}

func TestScheduleLastFramePhase(t *testing.T) {
	s := testSchedule()
	L := 20
	last := s.P.TotalPhases(L)
	// At that phase the last frame's back is above level L.
	if back := s.FrameBack(s.P.NumSets-1, last); back <= L {
		t.Errorf("back of last frame = %d at phase %d, want > %d", back, last, L)
	}
	// One phase earlier it is not fully out.
	if back := s.FrameBack(s.P.NumSets-1, last-1); back > L {
		t.Errorf("last frame already out at phase %d", last-1)
	}
}

// Property: InFrame and InnerLevel agree for arbitrary schedules.
func TestScheduleInFrameInnerConsistency(t *testing.T) {
	f := func(sets, m, w uint8, set, phase, level int16) bool {
		p := Params{
			NumSets: int(sets%5) + 1,
			M:       int(m%10) + 4,
			W:       int(w%20) + 2,
			Q:       0.1,
		}
		s := Schedule{p}
		st := int(set) % p.NumSets
		if st < 0 {
			st = -st
		}
		in := s.InFrame(st, int(phase), int(level))
		inner := s.InnerLevel(st, int(phase), int(level))
		return in == (inner >= 0 && inner < p.M)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
