// Package obs is the simulator's observability layer: it turns the
// engines' raw per-step snapshots (sim.Probe / sim.SFProbe) into an
// annotated per-step / per-round / per-phase time series, records
// packet lifecycle events into a fixed-capacity ring, and exports both
// as CSV/JSON. Everything here consumes the hooks in
// internal/sim/probe.go; nothing is active unless explicitly attached,
// so runs without observability keep the engines' 0 allocs/step
// steady state.
//
// The data path is deterministic end to end: the engine builds each
// snapshot from the step's metric deltas, its excited-request count
// and a post-commit census, and the Collector only derives from that
// snapshot plus the pure schedule arithmetic — so a seed fixes the
// series byte for byte (pinned by TestObsOutputPinned in
// internal/core).
package obs

import "hotpotato/internal/sim"

// StepStats is the annotated snapshot handed to probes: the engine's
// raw per-step snapshot plus the frontier-frame coordinates of the
// step. For the per-round and per-phase callbacks the counter fields
// hold window sums, the gauge fields (Active, Occupancy, MaxQueueLen)
// the end-of-window value (MaxQueueLen the window maximum), and Step
// the window's last step.
//
// Like the engine's snapshot, the value is reused across calls; probes
// must copy what they keep (Clone does a deep copy).
type StepStats struct {
	sim.StepSnapshot

	// Phase and Round locate the step in the frontier-frame timetable;
	// both are -1 when the Collector has no schedule (baseline routers,
	// the store-and-forward engine).
	Phase int `json:"phase"`
	Round int `json:"round"`
	// FrameTargets[i] is frontier-set i's target level at this step
	// (possibly outside [0, L] while frame i is partially outside the
	// network). Empty without a schedule.
	FrameTargets []int `json:"frame_targets,omitempty"`
}

// Clone returns a deep copy (fresh Occupancy and FrameTargets
// backings) safe to keep across callbacks.
func (s *StepStats) Clone() StepStats {
	c := *s
	c.Occupancy = append([]int(nil), s.Occupancy...)
	c.FrameTargets = append([]int(nil), s.FrameTargets...)
	return c
}

// Schedule is the timetable the Collector uses to annotate steps and
// detect round/phase boundaries. core.Schedule satisfies it; the
// interface keeps obs importable from core without a cycle.
type Schedule interface {
	PhaseOf(t int) int
	RoundOf(t int) int
	IsRoundEnd(t int) bool
	IsPhaseEnd(t int) bool
	TargetLevel(set, phase, round int) int
	Sets() int
}

// Probe receives the annotated time series. All callbacks run
// sequentially on the stepping goroutine; the StepStats value is
// collector-owned and valid only for the duration of the call.
type Probe interface {
	// OnStep fires after every committed step.
	OnStep(s *StepStats)
	// OnRound fires at each round boundary with the round's
	// accumulated stats (never fires without a schedule, except from
	// Flush).
	OnRound(s *StepStats)
	// OnPhase fires at each phase boundary with the phase's
	// accumulated stats.
	OnPhase(s *StepStats)
}

// window accumulates StepStats over a round or phase.
type window struct {
	StepStats
	n int // steps accumulated; 0 = empty
}

func (w *window) add(s *StepStats) {
	if w.n == 0 {
		occ, ft := w.Occupancy, w.FrameTargets
		w.StepStats = *s
		w.Occupancy = append(occ[:0], s.Occupancy...)
		w.FrameTargets = append(ft[:0], s.FrameTargets...)
		w.n = 1
		return
	}
	w.n++
	w.Step = s.Step
	w.Phase = s.Phase
	w.Round = s.Round
	w.Injected += s.Injected
	w.Absorbed += s.Absorbed
	w.Moves += s.Moves
	for k := range w.Deflections {
		w.Deflections[k] += s.Deflections[k]
	}
	w.Excited += s.Excited
	w.FaultBlocked += s.FaultBlocked
	w.FaultStalls += s.FaultStalls
	w.InjectionWaits += s.InjectionWaits
	// Availability averages over the window; EdgesDown keeps the peak
	// simultaneous outage (both are gauges, but an end-of-window sample
	// would hide an outage that opened and healed mid-window).
	w.Availability += (s.Availability - w.Availability) / float64(w.n)
	if s.EdgesDown > w.EdgesDown {
		w.EdgesDown = s.EdgesDown
	}
	w.QueueDelay += s.QueueDelay
	w.Blocked += s.Blocked
	if s.MaxQueueLen > w.MaxQueueLen {
		w.MaxQueueLen = s.MaxQueueLen
	}
	// The active level band widens to the union of the step bands, so a
	// round/phase row reports every level that held a packet during it
	// (an end-of-window sample would hide the frontier's sweep). Empty
	// step bands (lo > hi, nothing in flight) contribute nothing.
	if s.WindowHi >= s.WindowLo {
		if w.WindowHi < w.WindowLo {
			w.WindowLo, w.WindowHi = s.WindowLo, s.WindowHi
		} else {
			if s.WindowLo < w.WindowLo {
				w.WindowLo = s.WindowLo
			}
			if s.WindowHi > w.WindowHi {
				w.WindowHi = s.WindowHi
			}
		}
	}
	// Gauges: keep the end-of-window value.
	w.Active = s.Active
	w.Occupancy = append(w.Occupancy[:0], s.Occupancy...)
	w.FrameTargets = append(w.FrameTargets[:0], s.FrameTargets...)
}

// Collector adapts the engines' raw snapshot stream into the annotated
// Probe vocabulary. It implements both sim.Probe and sim.SFProbe, so
// one collector serves either engine; attach it with Attach/AttachSF
// (or sim's AttachProbe directly). A nil schedule is allowed — steps
// then carry Phase = Round = -1 and only OnStep fires (plus one
// trailing OnRound/OnPhase from Flush covering the whole run).
type Collector struct {
	sched  Schedule
	probes []Probe

	step  StepStats
	round window
	phase window
}

// NewCollector builds a collector feeding the given probes in order.
// sched may be nil (no phase annotation, no boundary callbacks).
func NewCollector(sched Schedule, probes ...Probe) *Collector {
	c := &Collector{sched: sched, probes: probes}
	c.step.Phase, c.step.Round = -1, -1
	return c
}

// AddProbe appends another probe to the fan-out list.
func (c *Collector) AddProbe(p Probe) { c.probes = append(c.probes, p) }

// Attach registers the collector on a hot-potato engine. Probes
// compose at the engine (sim.Engine.AttachProbe), so attaching a
// second collector chains rather than replaces.
func (c *Collector) Attach(e *sim.Engine) { e.AttachProbe(c) }

// AttachSF registers the collector on a store-and-forward engine.
func (c *Collector) AttachSF(e *sim.SFEngine) { e.AttachProbe(c) }

// OnStep implements sim.Probe.
func (c *Collector) OnStep(_ *sim.Engine, s *sim.StepSnapshot) { c.ingest(s) }

// OnSFStep implements sim.SFProbe.
func (c *Collector) OnSFStep(_ *sim.SFEngine, s *sim.StepSnapshot) { c.ingest(s) }

func (c *Collector) ingest(s *sim.StepSnapshot) {
	t := s.Step
	st := &c.step
	occ := st.Occupancy
	st.StepSnapshot = *s
	st.Occupancy = append(occ[:0], s.Occupancy...)
	if c.sched != nil {
		st.Phase = c.sched.PhaseOf(t)
		st.Round = c.sched.RoundOf(t)
		sets := c.sched.Sets()
		if cap(st.FrameTargets) < sets {
			st.FrameTargets = make([]int, sets)
		}
		st.FrameTargets = st.FrameTargets[:sets]
		for i := 0; i < sets; i++ {
			st.FrameTargets[i] = c.sched.TargetLevel(i, st.Phase, st.Round)
		}
	}
	for _, p := range c.probes {
		p.OnStep(st)
	}
	c.round.add(st)
	c.phase.add(st)
	if c.sched != nil {
		if c.sched.IsRoundEnd(t) || c.sched.IsPhaseEnd(t) {
			c.emitRound()
		}
		if c.sched.IsPhaseEnd(t) {
			c.emitPhase()
		}
	}
}

func (c *Collector) emitRound() {
	if c.round.n == 0 {
		return
	}
	for _, p := range c.probes {
		p.OnRound(&c.round.StepStats)
	}
	c.round.n = 0
}

func (c *Collector) emitPhase() {
	if c.phase.n == 0 {
		return
	}
	for _, p := range c.probes {
		p.OnPhase(&c.phase.StepStats)
	}
	c.phase.n = 0
}

// Flush emits the trailing partial round and phase (runs usually end
// mid-phase: the last packet is absorbed, not the timetable). Call
// once after the run; a flush with nothing pending is a no-op.
func (c *Collector) Flush() {
	c.emitRound()
	c.emitPhase()
}
