package core

import (
	"fmt"

	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
)

// InvariantReport counts violations of the paper's per-phase invariants
// (Section 4). Under the proof-grade parameters every count is zero
// w.h.p.; under scaled-down practical parameters nonzero counts
// quantify how much of the analysis survives (experiments E5, E6, E8).
type InvariantReport struct {
	// StepsChecked is the number of observed steps.
	StepsChecked int

	// IbPathInvalid counts (packet, step) pairs with an invalid current
	// path (invariant Ib; Lemma 2.1 predicts zero).
	IbPathInvalid int

	// IcFrameEscapes counts (packet, step) pairs in which an active
	// packet sat outside its frontier-frame (invariant Ic).
	IcFrameEscapes int

	// IdForeignMeetings counts (node, step) pairs at which packets of
	// different frontier-sets met (invariant Id).
	IdForeignMeetings int

	// IeCongestionChecks and IeCongestionExceeded track frontier-set
	// congestion: each check recomputes every set's edge congestion and
	// Exceeded counts sets whose congestion rose above its initial
	// value (invariant Ie via Lemma 4.10: congestion never grows).
	IeCongestionChecks   int
	IeCongestionExceeded int
	InitialSetCongestion []int
	MaxSetCongestionSeen []int
	// IeBoundExceeded counts sets whose initial congestion already
	// exceeded the Lemma 2.2 bound ln(LN) (a property of the random
	// partition, not of routing).
	IeBoundExceeded int

	// IfPhaseEndChecks and IfTailOccupied track invariant If: at each
	// phase end, active packets must sit at inner-level <= M-4 of their
	// frame (the last three inner-levels drain before the shift).
	IfPhaseEndChecks int
	IfTailOccupied   int
}

// Clean reports whether no violations were observed.
func (r *InvariantReport) Clean() bool {
	return r.IbPathInvalid == 0 && r.IcFrameEscapes == 0 &&
		r.IdForeignMeetings == 0 && r.IeCongestionExceeded == 0 &&
		r.IfTailOccupied == 0
}

// String renders a compact summary.
func (r *InvariantReport) String() string {
	return fmt.Sprintf("Ib=%d Ic=%d Id=%d Ie=%d/%d If=%d/%d (steps=%d)",
		r.IbPathInvalid, r.IcFrameEscapes, r.IdForeignMeetings,
		r.IeCongestionExceeded, r.IeCongestionChecks,
		r.IfTailOccupied, r.IfPhaseEndChecks, r.StepsChecked)
}

// InvariantChecker observes an engine running a Frame router and fills
// an InvariantReport. Attach with Attach before running.
type InvariantChecker struct {
	Report InvariantReport

	r        *Frame
	e        *sim.Engine
	occupied map[graph.NodeID]int32 // node -> set of first packet seen this step
}

// NewInvariantChecker builds a checker for the given frame router.
func NewInvariantChecker(r *Frame) *InvariantChecker {
	return &InvariantChecker{r: r}
}

// Attach registers the checker on the engine and snapshots the initial
// frontier-set congestion (after Init has assigned sets).
func (c *InvariantChecker) Attach(e *sim.Engine) {
	c.e = e
	c.occupied = make(map[graph.NodeID]int32)
	c.Report.InitialSetCongestion = c.setCongestion()
	c.Report.MaxSetCongestionSeen = append([]int(nil), c.Report.InitialSetCongestion...)
	bound := lnLN(e.G.Depth(), len(e.Packets))
	for _, ci := range c.Report.InitialSetCongestion {
		if float64(ci) > bound {
			c.Report.IeBoundExceeded++
		}
	}
	e.AddObserver(c.observe)
}

// setCongestion computes, for every frontier-set, the maximum per-edge
// count of current paths of packets in the set (active and not yet
// injected, as the paper's definition of edge congestion requires;
// absorbed packets have empty path lists).
func (c *InvariantChecker) setCongestion() []int {
	counts := make([][]int32, c.r.P.NumSets)
	for i := range counts {
		counts[i] = make([]int32, c.e.G.NumEdges())
	}
	for i := range c.e.Packets {
		p := &c.e.Packets[i]
		set := c.r.set[p.ID]
		var path []graph.EdgeID
		switch {
		case p.Absorbed:
			continue
		case p.Active:
			path = p.PathList
		default:
			path = p.Preselected
		}
		for _, ed := range path {
			counts[set][ed]++
		}
	}
	out := make([]int, c.r.P.NumSets)
	for i, per := range counts {
		m := int32(0)
		for _, v := range per {
			if v > m {
				m = v
			}
		}
		out[i] = int(m)
	}
	return out
}

// observe is the per-step hook.
func (c *InvariantChecker) observe(t int, e *sim.Engine) {
	c.Report.StepsChecked++
	sched := c.r.sched
	// Positions after step t are the state at time t+1.
	phaseNext := sched.PhaseOf(t + 1)
	phaseEnded := sched.IsPhaseEnd(t)
	phaseCur := sched.PhaseOf(t)

	clear(c.occupied)
	for i := range e.Packets {
		p := &e.Packets[i]
		if !p.Active {
			continue
		}
		set := int(c.r.set[p.ID])
		lvl := e.G.Node(p.Cur).Level

		// Ib: current path validity.
		if !p.PathValid(e.G) {
			c.Report.IbPathInvalid++
		}

		// Ic: inside own frame (frames at their t+1 position).
		if !sched.InFrame(set, phaseNext, lvl) {
			c.Report.IcFrameEscapes++
		}

		// Id: no two sets share a node.
		if prev, ok := c.occupied[p.Cur]; ok {
			if prev != c.r.set[p.ID] {
				c.Report.IdForeignMeetings++
			}
		} else {
			c.occupied[p.Cur] = c.r.set[p.ID]
		}

		// If: at phase end, the frame's last three inner-levels are
		// empty (inner-level <= M-4), judged at the ending phase's
		// frame position.
		if phaseEnded {
			if inner := sched.InnerLevel(set, phaseCur, lvl); inner > c.r.P.M-4 {
				c.Report.IfTailOccupied++
			}
		}
	}
	if phaseEnded {
		c.Report.IfPhaseEndChecks++
	}

	// Ie: frontier-set congestion never grows.
	if sched.IsRoundEnd(t) {
		cur := c.setCongestion()
		c.Report.IeCongestionChecks++
		for i, v := range cur {
			if v > c.Report.MaxSetCongestionSeen[i] {
				c.Report.MaxSetCongestionSeen[i] = v
			}
			if v > c.Report.InitialSetCongestion[i] {
				c.Report.IeCongestionExceeded++
			}
		}
	}
}
