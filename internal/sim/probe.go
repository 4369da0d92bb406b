package sim

import "hotpotato/internal/graph"

// Engine-level instrumentation: a Probe receives one reusable
// StepSnapshot per committed step, an EventSink receives per-packet
// lifecycle events. Both are strictly pay-for-what-you-use — with no
// probe or sink attached the step loop performs a handful of nil
// checks and nothing else, preserving the CI-gated 0 allocs/step
// invariant; with one attached, every snapshot field is produced from
// the step's metric deltas, its excited-request count and a post-commit
// census of the active list, so a seed fixes the series byte for byte. The higher-level probe vocabulary — per-round and
// per-phase callbacks, schedule annotation, exporters — lives in
// internal/obs, which consumes these hooks.

// StepSnapshot is the per-step instrumentation record. One snapshot
// value is owned by the engine and reused across steps; probes must
// copy anything they keep (including the Occupancy backing array).
//
// All counter fields are deltas for the step just committed, not
// cumulative totals; cumulative values remain available on the
// engine's Metrics. The QueueDelay/Blocked/MaxQueueLen fields are
// meaningful only for the store-and-forward engine, the
// Deflections/Excited/fault fields only for the hot-potato engine.
type StepSnapshot struct {
	// Step is the step number just committed (the engine's t).
	Step int `json:"step"`
	// Active is the number of in-flight packets after the commit.
	Active int `json:"active"`
	// Injected, Absorbed and Moves are this step's deltas.
	Injected int `json:"injected"`
	Absorbed int `json:"absorbed"`
	Moves    int `json:"moves"`
	// Deflections counts this step's deflections by DeflectKind.
	Deflections [4]int `json:"deflections"`
	// Excited counts requests submitted this step at or above
	// ExcitedPriority — the engine-visible shadow of the frame router's
	// excitation census, counted as requests are collected.
	Excited int `json:"excited"`
	// Fault and injection-pressure deltas.
	FaultBlocked   int `json:"fault_blocked"`
	FaultStalls    int `json:"fault_stalls"`
	InjectionWaits int `json:"injection_waits"`
	// EdgesDown is the number of edges the fault model marks down at
	// this step, and Availability the complementary healthy fraction
	// (1.0 with no fault model). Unlike the counters these are gauges,
	// not deltas; the O(E) sweep behind them runs only with a probe
	// attached and a non-nil fault model.
	EdgesDown    int     `json:"edges_down"`
	Availability float64 `json:"availability"`
	// Occupancy is the per-level active-packet census after the commit
	// (length Depth()+1, engine-owned backing, valid until the next
	// step).
	Occupancy []int `json:"occupancy"`
	// WindowLo/WindowHi bound the active level band after the commit:
	// every in-flight packet sits at a level in [WindowLo, WindowHi], and
	// both bounds are tight (each holds at least one packet). With no
	// packets in flight WindowLo=0, WindowHi=-1. On the hot-potato engine
	// under the frame schedule the band tracks the frontier, exposing the
	// active-frame level skipping (Occupancy entries outside the band are
	// zero by construction). The SF engine reports the full depth range.
	WindowLo int `json:"window_lo"`
	WindowHi int `json:"window_hi"`
	// Store-and-forward deltas (zero on the hot-potato engine).
	QueueDelay int `json:"queue_delay"`
	Blocked    int `json:"blocked"`
	// MaxQueueLen is the peak queue length observed this step (not a
	// delta; SF engine only).
	MaxQueueLen int `json:"max_queue_len"`
}

// ExcitedPriority is the request-priority threshold above which the
// engine counts a request as excited in StepSnapshot.Excited. The frame
// router's excited state maps to exactly this priority (asserted in
// core's tests); routers with richer priority schemes simply see every
// request at or above it counted.
const ExcitedPriority int64 = 2

// Probe receives the hot-potato engine's per-step snapshot. OnStep runs
// sequentially on the stepping goroutine after the commit, before
// observers and Notifier.EndStep; the snapshot is engine-owned and valid
// only for the duration of the call.
type Probe interface {
	OnStep(e *Engine, s *StepSnapshot)
}

// SFProbe is the store-and-forward engine's probe counterpart.
type SFProbe interface {
	OnSFStep(e *SFEngine, s *StepSnapshot)
}

// EventKind classifies a packet lifecycle event.
type EventKind uint8

const (
	// EventInject: the packet entered the network (arg = source node).
	EventInject EventKind = iota
	// EventDeflect: the packet lost its request and was deflected
	// (arg = DeflectKind).
	EventDeflect
	// EventExcite: the packet was promoted to the excited state
	// (router-emitted; arg unused).
	EventExcite
	// EventRestore: an excitation episode ended (router-emitted; arg =
	// RestoreReason).
	EventRestore
	// EventAbsorb: the packet reached its destination (arg =
	// destination node).
	EventAbsorb
	// EventStall: the packet held in place for one step — a fault
	// stall on the hot-potato engine, a full downstream buffer on the
	// store-and-forward engine (arg unused).
	EventStall
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventInject:
		return "inject"
	case EventDeflect:
		return "deflect"
	case EventExcite:
		return "excite"
	case EventRestore:
		return "restore"
	case EventAbsorb:
		return "absorb"
	case EventStall:
		return "stall"
	}
	return "event?"
}

// RestoreReason values carried in EventRestore's arg.
const (
	// RestoreTarget: the excited packet reached its target (success).
	RestoreTarget int32 = iota
	// RestoreDeflected: the episode ended in a deflection.
	RestoreDeflected
	// RestoreRoundEnd: the episode survived to a round or phase
	// boundary and was reset there.
	RestoreRoundEnd
	// RestoreAbsorbed: the packet was absorbed while excited (success).
	RestoreAbsorbed
)

// EventSink receives packet lifecycle events. The engine emits them at
// fixed points of the step (injection commit, deflection assignment in
// occupied-list order, move commit), so a seed fixes the event order.
// Events within one step carry the same stamp and are ordered by
// emission position, not by intra-step causality.
type EventSink interface {
	RecordEvent(t int, pid PacketID, kind EventKind, arg int32)
}

// probePair fans OnStep out to two probes in attachment order.
type probePair struct{ a, b Probe }

func (p probePair) OnStep(e *Engine, s *StepSnapshot) {
	p.a.OnStep(e, s)
	p.b.OnStep(e, s)
}

// sfProbePair fans OnSFStep out to two probes in attachment order.
type sfProbePair struct{ a, b SFProbe }

func (p sfProbePair) OnSFStep(e *SFEngine, s *StepSnapshot) {
	p.a.OnSFStep(e, s)
	p.b.OnSFStep(e, s)
}

// sinkPair fans events out to two sinks in attachment order.
type sinkPair struct{ a, b EventSink }

func (p sinkPair) RecordEvent(t int, pid PacketID, kind EventKind, arg int32) {
	p.a.RecordEvent(t, pid, kind, arg)
	p.b.RecordEvent(t, pid, kind, arg)
}

// chainProbe composes probes: nil + p = p, existing + p = fan-out in
// attachment order. Attaching must never silently drop an earlier
// probe (the composability contract obs.Collector relies on).
func chainProbe(cur, p Probe) Probe {
	if cur == nil {
		return p
	}
	return probePair{cur, p}
}

func chainSFProbe(cur, p SFProbe) SFProbe {
	if cur == nil {
		return p
	}
	return sfProbePair{cur, p}
}

func chainSink(cur, s EventSink) EventSink {
	if cur == nil {
		return s
	}
	return sinkPair{cur, s}
}

// AttachProbe registers a per-step probe on the engine. Probes compose:
// attaching a second one chains it after the first rather than
// replacing it. Like observers, probes are per-run attachments and are
// cleared by Reset.
func (e *Engine) AttachProbe(p Probe) {
	if p == nil {
		return
	}
	e.probe = chainProbe(e.probe, p)
	e.growSnapshot()
}

// HasProbe reports whether at least one probe is attached.
func (e *Engine) HasProbe() bool { return e.probe != nil }

// AttachEventSink registers a packet lifecycle event sink. Sinks
// compose like probes, and are likewise cleared by Reset.
func (e *Engine) AttachEventSink(s EventSink) {
	if s == nil {
		return
	}
	e.events = chainSink(e.events, s)
}

// Events returns the attached event sink chain (nil when none).
// Routers that emit their own lifecycle events (e.g. the frame
// router's excite/restore) fetch it here at Init and skip the
// bookkeeping entirely when nobody is listening.
func (e *Engine) Events() EventSink { return e.events }

// growSnapshot sizes the reusable snapshot's census backing once, at
// attach time, so the per-step fill never allocates. The backing is
// zeroed and the remembered fill window emptied here, so the per-step
// window-batched fill (emitSnapshot) starts from a clean census even
// when the backing is recycled across runs.
func (e *Engine) growSnapshot() {
	if want := e.G.Depth() + 1; len(e.snap.Occupancy) != want {
		e.snap.Occupancy = make([]int, want)
	} else {
		clear(e.snap.Occupancy)
	}
	e.snapLo, e.snapHi = 0, -1
}

// emitSnapshot builds the per-step snapshot from the metric deltas
// against lastM and the post-commit occupancy, then hands it to the
// probe chain. Runs on the stepping goroutine, after the commit.
func (e *Engine) emitSnapshot(t int, excited int) {
	s := &e.snap
	s.Step = t
	s.Active = len(e.active)
	s.Injected = e.M.Injected - e.lastM.Injected
	s.Absorbed = e.M.Absorbed - e.lastM.Absorbed
	s.Moves = e.M.Moves - e.lastM.Moves
	for k := range s.Deflections {
		s.Deflections[k] = e.M.Deflections[k] - e.lastM.Deflections[k]
	}
	s.Excited = excited
	s.FaultBlocked = e.M.FaultBlocked - e.lastM.FaultBlocked
	s.FaultStalls = e.M.FaultStalls - e.lastM.FaultStalls
	s.InjectionWaits = e.M.InjectionWaits - e.lastM.InjectionWaits
	s.EdgesDown, s.Availability = 0, 1
	if e.Faults != nil {
		for eid := 0; eid < e.G.NumEdges(); eid++ {
			if e.Faults(graph.EdgeID(eid), t) {
				s.EdgesDown++
			}
		}
		s.Availability = 1 - float64(s.EdgesDown)/float64(e.G.NumEdges())
	}
	e.lastM = e.M
	// The census recounts the active list, bounding the window as it
	// goes, and zeroes only the band the previous emit filled
	// (snapLo/snapHi), so on a deep network with a narrow frontier the
	// fill follows the packets in flight and the window width, not the
	// depth.
	occ := s.Occupancy
	for l := e.snapLo; l <= e.snapHi; l++ {
		occ[l] = 0
	}
	lo, hi := len(occ), -1
	for _, pid := range e.active {
		l := int(e.Packets[pid].Level)
		occ[l]++
		lo, hi = min(lo, l), max(hi, l)
	}
	if hi < 0 {
		lo = 0
	}
	s.WindowLo, s.WindowHi = lo, hi
	e.snapLo, e.snapHi = lo, hi
	e.probe.OnStep(e, s)
}

// AttachProbe registers a per-step probe on the store-and-forward
// engine; probes compose and are cleared by Reset.
func (e *SFEngine) AttachProbe(p SFProbe) {
	if p == nil {
		return
	}
	e.probe = chainSFProbe(e.probe, p)
	if want := e.G.Depth() + 1; len(e.snap.Occupancy) != want {
		e.snap.Occupancy = make([]int, want)
	}
}

// AttachEventSink registers a lifecycle event sink on the
// store-and-forward engine; sinks compose and are cleared by Reset.
func (e *SFEngine) AttachEventSink(s EventSink) {
	if s == nil {
		return
	}
	e.events = chainSink(e.events, s)
}

// emitSFSnapshot builds the store-and-forward per-step snapshot. The
// occupancy census attributes each queued packet to the level of the
// node its queue waits at (the edge's From node).
func (e *SFEngine) emitSFSnapshot(t int) {
	s := &e.snap
	s.Step = t
	s.Active = e.M.Injected - e.M.Absorbed
	s.Injected = e.M.Injected - e.lastM.Injected
	s.Absorbed = e.M.Absorbed - e.lastM.Absorbed
	s.Moves = e.M.Moves - e.lastM.Moves
	s.QueueDelay = e.M.QueueDelay - e.lastM.QueueDelay
	s.Blocked = e.M.Blocked - e.lastM.Blocked
	s.InjectionWaits = e.M.InjectionBlocked - e.lastM.InjectionBlocked
	s.MaxQueueLen = 0
	s.EdgesDown, s.Availability = 0, 1      // SF engine has no fault model
	s.WindowLo, s.WindowHi = 0, e.G.Depth() // SF engine keeps no level census
	e.lastM = e.M
	occ := s.Occupancy
	for i := range occ {
		occ[i] = 0
	}
	census := func(pos []int32) {
		for _, p := range pos {
			eid := e.edgesByLevelDesc[p]
			if n := len(e.queue[eid]); n > 0 {
				occ[e.G.Node(e.G.Edge(eid).From).Level] += n
				if n > s.MaxQueueLen {
					s.MaxQueueLen = n
				}
			}
		}
	}
	census(e.activePos)
	census(e.newPos)
	e.probe.OnSFStep(e, s)
}
