package core

// Schedule captures the frontier-frame timetable of Section 2.5: time
// divides into phases of M rounds of W steps; frontier i starts at
// level -i*M at phase 0 and advances one level per phase; frame F_i
// spans the M levels [frontier-M+1, frontier]; the round-j target level
// is inner-level 0 for rounds 0-1 and inner-level j-1 afterwards.
type Schedule struct {
	P Params
}

// PhaseOf returns the phase containing step t.
func (s Schedule) PhaseOf(t int) int { return t / s.P.StepsPerPhase() }

// Sets returns the number of frontier sets (satisfies obs.Schedule).
func (s Schedule) Sets() int { return s.P.NumSets }

// RoundOf returns the round (within its phase) containing step t.
func (s Schedule) RoundOf(t int) int { return (t % s.P.StepsPerPhase()) / s.P.W }

// StepInRound returns t's offset within its round.
func (s Schedule) StepInRound(t int) int { return t % s.P.W }

// PhaseStart returns the first step of the given phase.
func (s Schedule) PhaseStart(phase int) int { return phase * s.P.StepsPerPhase() }

// IsRoundEnd reports whether step t is the last step of its round.
func (s Schedule) IsRoundEnd(t int) bool { return s.StepInRound(t) == s.P.W-1 }

// IsPhaseEnd reports whether step t is the last step of its phase.
func (s Schedule) IsPhaseEnd(t int) bool { return t%s.P.StepsPerPhase() == s.P.StepsPerPhase()-1 }

// clock is the schedule position of one step: its phase, its round
// within the phase and its offset within the round.
type clock struct {
	t, phase, round, inRound int
}

// roundEnd reports whether the step is the last of its round.
func (c clock) roundEnd(s Schedule) bool { return c.inRound == s.P.W-1 }

// phaseEnd reports whether the step is the last of its phase.
func (c clock) phaseEnd(s Schedule) bool { return c.roundEnd(s) && c.round == s.P.M-1 }

// clockAt returns step t's schedule position, by division.
func (s Schedule) clockAt(t int) clock {
	rem := t % s.P.StepsPerPhase()
	return clock{t: t, phase: t / s.P.StepsPerPhase(), round: rem / s.P.W, inRound: rem % s.P.W}
}

// next returns the position of the step after c's, without dividing.
func (s Schedule) next(c clock) clock {
	c.t++
	if c.inRound++; c.inRound == s.P.W {
		c.inRound = 0
		if c.round++; c.round == s.P.M {
			c.round = 0
			c.phase++
		}
	}
	return c
}

// Frontier returns the level pointed to by frontier i during the given
// phase: phase - i*M. The value may lie outside [0, L]; only the
// in-network portion of the frame exists (Figure 2 shows partial
// frames at both ends).
func (s Schedule) Frontier(set, phase int) int {
	return phase - set*s.P.M
}

// FrameBack returns the lowest level of frame i during the phase
// (frontier - M + 1).
func (s Schedule) FrameBack(set, phase int) int {
	return s.Frontier(set, phase) - s.P.M + 1
}

// InFrame reports whether a network level lies inside frame i during
// the phase.
func (s Schedule) InFrame(set, phase, level int) bool {
	f := s.Frontier(set, phase)
	return level >= f-s.P.M+1 && level <= f
}

// InnerLevel converts a network level to frame i's inner-level during
// the phase: inner-level k is network level frontier-k, so inner 0 is
// the frontier itself and inner M-1 the back of the frame. The result
// is meaningful only when InFrame holds.
func (s Schedule) InnerLevel(set, phase, level int) int {
	return s.Frontier(set, phase) - level
}

// TargetInner returns the inner-level of the target during the given
// round: inner 0 for rounds 0 and 1, inner j-1 for round j >= 2
// (Section 2.5).
func (s Schedule) TargetInner(round int) int {
	if round <= 1 {
		return 0
	}
	return round - 1
}

// TargetLevel returns the network level targeted by frame i in the
// given phase and round. It may lie outside [0, L] while the frame is
// only partially inside the network.
func (s Schedule) TargetLevel(set, phase, round int) int {
	return s.Frontier(set, phase) - s.TargetInner(round)
}

// InjectionPhase returns the phase at whose beginning a packet of set i
// with source at srcLevel is injected: the phase in which the source
// sits at inner-level M-1 of frame i, i.e. frontier = srcLevel + M - 1.
func (s Schedule) InjectionPhase(set, srcLevel int) int {
	return set*s.P.M + srcLevel + s.P.M - 1
}

// ActiveBand returns the band of network levels that can hold packets
// during the given phase in a depth-L network, under invariant Ic
// (every packet inside its own frame): the union over all frontier-sets
// of the in-network portion of their frames. Set 0's frontier is the
// highest level any packet can occupy; set NumSets-1's frame back the
// lowest. Both are clamped to [0, L]; when the clamped union is empty
// (all frames still below the network, or all past it) it returns
// (0, -1). The engine's measured window (sim.Engine.Window) is a subset
// of this band on any run in which Ic holds — asserted in the tests —
// which is what makes the schedule-side skipping sound: levels outside
// the band are provably empty, not just observed empty.
func (s Schedule) ActiveBand(phase, L int) (lo, hi int) {
	lo = s.FrameBack(s.P.NumSets-1, phase)
	if lo < 0 {
		lo = 0
	}
	hi = s.Frontier(0, phase)
	if hi > L {
		hi = L
	}
	if lo > hi {
		return 0, -1
	}
	return lo, hi
}
