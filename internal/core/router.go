package core

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
)

// Packet states (Section 3). Priorities order conflicts:
// excited > normal > wait.
type state int8

const (
	stateNormal state = iota
	stateExcited
	stateWait
)

// String implements fmt.Stringer.
func (s state) String() string {
	switch s {
	case stateNormal:
		return "normal"
	case stateExcited:
		return "excited"
	case stateWait:
		return "wait"
	}
	return fmt.Sprintf("state(%d)", int8(s))
}

// Engine priorities for each state.
const (
	prioWait    int64 = 0
	prioNormal  int64 = 1
	prioExcited int64 = 2
)

// Stats aggregates router-level counters for one run.
type Stats struct {
	// Excitations counts normal->excited promotions.
	Excitations int
	// WaitEntries counts normal/excited->wait transitions.
	WaitEntries int
	// WaitInterrupts counts wait packets deflected back to normal.
	WaitInterrupts int
	// LatePhaseInjections counts packets injected after the first step
	// of their scheduled injection phase (the paper's "extreme case").
	LatePhaseInjections int
	// ExcitedSuccesses counts excitation episodes that ended with the
	// packet reaching its target (entering wait or being absorbed);
	// ExcitedFailures counts episodes ended by deflection or round end.
	// Lemma 4.3 lower-bounds the per-episode success chance by 1/2e
	// under the paper's q.
	ExcitedSuccesses int
	ExcitedFailures  int
}

// Frame is the paper's routing algorithm as a sim.Router.
type Frame struct {
	P Params

	// DisableWait removes the wait state (ablation): packets keep
	// chasing their targets instead of parking and oscillating. Set
	// before the engine's first step. Expect invariant Ic to break —
	// without parking, a packet that reaches the frontier keeps walking
	// forward out of its frame; the wait state is what pins progress to
	// the frame schedule.
	DisableWait bool

	// EagerInjection removes the staged injection schedule (ablation):
	// packets enter at the first opportunity instead of waiting for
	// their frame to reach their source. Expect invariants Ic and Id to
	// break — early packets sit outside (ahead of) their frames and mix
	// with other sets; the injection schedule is what keeps the frames
	// disjoint.
	EagerInjection bool

	// Events, when non-nil, receives the router's excite/restore
	// lifecycle events (the engine emits inject/deflect/stall/absorb
	// itself). Init clears it — matching the engine's own per-run
	// sinks — so wiring assigns it after each Engine.Reset.
	Events sim.EventSink

	g     *graph.Leveled
	rng   *rand.Rand
	sched Schedule
	S     Stats

	// clk is the schedule position of the step about to execute, so the
	// per-packet callbacks read phase and round instead of dividing.
	// Init sets it for step 0 and EndStep(t) for step t+1. A step the
	// engine reached without an EndStep — the first after Run
	// fast-forwards an idle stretch — misses it and falls back to
	// division (see at).
	clk clock

	// coinSeed keys the per-(step, packet) excitation coin (see
	// sim.CoinFloat): counter-based rather than drawn from the shared
	// sequential rng, so a packet's coin does not depend on the order
	// in which the engine asks for requests. Derived from the run seed
	// at Init.
	coinSeed uint64
	// coinBelow is P.Q as a CoinBits threshold (sim.CoinThreshold).
	coinBelow uint64

	// assign, when non-nil, is the caller-supplied frontier-set
	// assignment applied at Init instead of the random one.
	assign []int32

	// Per-packet algorithm state, indexed by PacketID. injPhase is the
	// packet's injection phase, fixed at Init by its set draw.
	set      []int32
	injPhase []int32
	st       []state
	waitNode []graph.NodeID
	waitEdge []graph.EdgeID

	// srcLevel and dstLevel are the levels of each packet's endpoints,
	// constants of the problem: read once per engine (whose problem is
	// fixed), not on every run.
	levelsOf           *sim.Engine
	srcLevel, dstLevel []int32

	// evExcited/evRestore stage this step's excite/restore events per
	// packet, set in Request and flushed at the packet's outcome
	// callback (OnDeflect, OnAbsorb, or EndStep in active-list order),
	// which fixes where they fall in the event stream. evRestore holds
	// a sim.Restore* reason, -1 when none staged.
	evExcited []bool
	evRestore []int32
}

// frameCoinSalt separates the excitation-coin stream from engine
// arbitration and any other derived stream.
const frameCoinSalt = 0xF4A3C017

// NewFrame returns a frame router with the given parameters. Packets
// are assigned to frontier-sets uniformly at random from the engine's
// seeded source at Init.
func NewFrame(p Params) *Frame {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Frame{P: p, sched: Schedule{p}}
}

// NewFrameWithSets returns a frame router with an explicit frontier-set
// assignment instead of the uniform random one: assign[i] is the set of
// packet i, in [0, P.NumSets). This supports staged (wave) arrivals:
// later sets have later injection phases, so mapping each arrival batch
// to its own block of sets pipelines the batches through the network.
// The slice length must match the packet count at Init.
func NewFrameWithSets(p Params, assign []int32) *Frame {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	for i, s := range assign {
		if s < 0 || int(s) >= p.NumSets {
			panic(fmt.Sprintf("core: set assignment %d of packet %d out of range [0,%d)", s, i, p.NumSets))
		}
	}
	return &Frame{P: p, sched: Schedule{p}, assign: assign}
}

// Name implements sim.Router.
func (r *Frame) Name() string { return "frame" }

// Schedule exposes the router's timetable (for observers and tests).
func (r *Frame) Schedule() Schedule { return r.sched }

// Set returns the frontier-set of a packet.
func (r *Frame) Set(id sim.PacketID) int { return int(r.set[id]) }

// State returns the current state name of a packet (for tracing).
func (r *Frame) State(id sim.PacketID) string { return r.st[id].String() }

// IsWaiting reports whether the packet is in the wait state.
func (r *Frame) IsWaiting(id sim.PacketID) bool { return r.st[id] == stateWait }

// StateCounts tallies the active packets by state (normal, excited,
// wait) — a live-view census for tracing tools.
func (r *Frame) StateCounts(e *sim.Engine) (normal, excited, wait int) {
	for _, i := range e.Active() {
		switch r.st[i] {
		case stateNormal:
			normal++
		case stateExcited:
			excited++
		case stateWait:
			wait++
		}
	}
	return
}

// Init implements sim.Router. It is called again on every Engine.Reset
// and fully rewinds the router — stats zeroed, per-packet state
// re-derived from the engine's (new) seed — reusing the per-packet
// slices when the packet count is unchanged, so an engine+router pair
// can serve many trials without reallocating.
func (r *Frame) Init(e *sim.Engine) {
	r.g = e.G
	r.rng = e.Rng
	r.coinSeed = sim.StreamSeed(e.Seed(), frameCoinSalt)
	r.coinBelow = sim.CoinThreshold(r.P.Q)
	r.S = Stats{}
	r.clk = r.sched.clockAt(0)
	r.Events = nil
	n := len(e.Packets)
	if len(r.set) != n {
		r.set = make([]int32, n)
		r.injPhase = make([]int32, n)
		r.st = make([]state, n)
		r.waitNode = make([]graph.NodeID, n)
		r.waitEdge = make([]graph.EdgeID, n)
		r.evExcited = make([]bool, n)
		r.evRestore = make([]int32, n)
	}
	if r.assign != nil && len(r.assign) != n {
		panic(fmt.Sprintf("core: set assignment covers %d packets, problem has %d", len(r.assign), n))
	}
	if r.levelsOf != e {
		r.levelsOf = e
		r.srcLevel, r.dstLevel = make([]int32, n), make([]int32, n)
		for i := range e.Packets {
			// A zero-length path's packet is absorbed at Reset and
			// never asks to be injected; its endpoints may be NoNode.
			if p := &e.Packets[i]; len(p.Preselected) > 0 {
				r.srcLevel[i], r.dstLevel[i] = int32(r.g.LevelOf(p.Src)), int32(r.g.LevelOf(p.Dst))
			}
		}
	}
	for i := range e.Packets {
		if r.assign != nil {
			r.set[i] = r.assign[i]
		} else {
			r.set[i] = int32(r.rng.Intn(r.P.NumSets))
		}
		e.Packets[i].Tag = r.set[i]
		r.injPhase[i] = int32(r.sched.InjectionPhase(int(r.set[i]), int(r.srcLevel[i])))
		r.st[i] = stateNormal
		r.waitNode[i] = graph.NoNode
		r.waitEdge[i] = graph.NoEdge
		r.evExcited[i] = false
		r.evRestore[i] = -1
	}
}

// WantInject implements sim.Router: a packet wants in from the start of
// the phase in which its source sits at inner-level M-1 of its frame
// (Section 3, Packet Injection). The engine enforces isolation; if the
// source is occupied the packet retries every later step.
func (r *Frame) WantInject(t int, p *sim.Packet) bool {
	if r.EagerInjection {
		return true
	}
	return r.at(t).phase >= int(r.injPhase[p.ID])
}

// at returns step t's schedule position: the step clock when it is at
// t, which holds on every step but the first after an idle
// fast-forward, else the direct computation.
func (r *Frame) at(t int) clock {
	if t == r.clk.t {
		return r.clk
	}
	return r.sched.clockAt(t)
}

// InjectStep implements sim.InjectionPlanner. WantInject is monotone in
// t — false before the packet's scheduled injection phase, true from
// its first step on — so the first step of that phase is not merely a
// lower bound but the exact moment the packet becomes eligible: the
// engine's release queue admits each packet to the injection sweep at
// precisely the step the legacy full sweep would first say yes.
// Depends only on the set assignment fixed at Init, as the contract
// requires. Under the EagerInjection ablation every packet is eligible
// immediately.
func (r *Frame) InjectStep(p *sim.Packet) int {
	if r.EagerInjection {
		return 0
	}
	return r.sched.PhaseStart(int(r.injPhase[p.ID]))
}

// TargetNode computes the packet's target node for the given step
// (Section 2.5): the node of its current path at the frame's target
// level, or the destination when the path does not cross that level.
// Destination-chasing is clamped at the frontier: Lemma 4.5 states that
// the rightmost target node of any packet is in level f_i, so a packet
// whose destination lies beyond the frontier waits where its path
// crosses the frontier instead of climbing out of its frame. (Without
// the clamp, a packet that misses its round target under scaled-down
// parameters would escape the frame forward.)
func (r *Frame) TargetNode(t int, p *sim.Packet) graph.NodeID {
	return r.target(r.at(t), p)
}

// target is TargetNode at schedule position c.
func (r *Frame) target(c clock, p *sim.Packet) graph.NodeID {
	set := int(r.set[p.ID])
	if v, ok := r.pathNodeAt(p, r.sched.TargetLevel(set, c.phase, c.round)); ok {
		return v
	}
	if f := r.sched.Frontier(set, c.phase); int(r.dstLevel[p.ID]) > f {
		if v, ok := r.pathNodeAt(p, f); ok {
			return v
		}
	}
	return p.Dst
}

// pathNodeAt returns the node of p's path list at the given level. The
// list's first edge leaves Cur, at the engine-kept Level, or — when its
// head retraces a forward deflection — the node one level below, so the
// list's start level costs no graph lookup. The node found is still
// checked against its level: a list holding such a retrace past its
// head is not level-monotone beyond it.
func (r *Frame) pathNodeAt(p *sim.Packet, level int) (graph.NodeID, bool) {
	start := int(p.Level)
	if p.HeadDir == graph.Backward {
		start--
	}
	v, ok := r.g.PathContainsLevel(p.PathList, start, level)
	return v, ok && r.g.LevelOf(v) == level
}

// atTarget reports whether p stands at its target node (target(c, p) ==
// p.Cur) without finding the target in the common case. An active
// packet is never at its destination, and both path lookups return a
// node at the level they ask for, so p can only be at its target when it
// stands at the target level tl or at the frontier f. At tl the lookup
// returns Cur itself: the list's node at the level it starts from, or
// one above a backward head, is the node the head leaves. At f ≠ tl it
// is at its target when the tl lookup fails and the frontier clamp
// applies, whose lookup then returns Cur the same way.
func (r *Frame) atTarget(c clock, p *sim.Packet) bool {
	set, l := int(r.set[p.ID]), int(p.Level)
	tl := r.sched.TargetLevel(set, c.phase, c.round)
	if l == tl {
		return true
	}
	if f := r.sched.Frontier(set, c.phase); l != f || int(r.dstLevel[p.ID]) <= f {
		return false
	}
	_, ok := r.pathNodeAt(p, tl)
	return !ok
}

// Request implements sim.Router.
func (r *Frame) Request(t int, p *sim.Packet) sim.Request {
	id := p.ID
	c := r.at(t)
	// A packet's first request comes at its injection step; injection
	// after the start of its scheduled phase is the paper's "extreme
	// case" fallback, worth counting.
	if p.InjectTime == t && t > r.sched.PhaseStart(int(r.injPhase[id])) {
		r.S.LatePhaseInjections++
	}
	if r.st[id] == stateWait {
		// Oscillate on the wait edge (Section 3, Wait state). The
		// packet sits at one endpoint; move to the other. A waiting
		// packet's last traversal is along its wait edge — it entered
		// wait over it and every move since retraced it, while a
		// deflection ends the wait and a fault stall moves nothing — so
		// the reverse of its arrival leaves its node.
		return sim.Request{Edge: r.waitEdge[id], Dir: p.ArrivalDir.Reverse(), Priority: prioWait}
	}

	// Normal packets attempt excitation each step with probability Q.
	// The coin is a pure function of (seed, step, packet) — each packet
	// still flips an independent Bernoulli(Q) per step, as Lemma 4.3's
	// analysis requires, but no draw depends on any other packet's.
	if r.st[id] == stateNormal && sim.CoinBits(r.coinSeed, t, id) < r.coinBelow {
		r.st[id] = stateExcited
		r.S.Excitations++
		if r.Events != nil {
			r.evExcited[id] = true
		}
	}

	// Reaching the target node begins the wait state, oscillating on
	// the last traversed link.
	if !r.DisableWait && p.ArrivalEdge != graph.NoEdge && r.atTarget(c, p) {
		if r.st[id] == stateExcited {
			r.S.ExcitedSuccesses++
			if r.Events != nil {
				r.evRestore[id] = sim.RestoreTarget
			}
		}
		r.st[id] = stateWait
		r.waitNode[id] = p.Cur
		r.waitEdge[id] = p.ArrivalEdge
		r.S.WaitEntries++
		return sim.Request{Edge: p.ArrivalEdge, Dir: p.ArrivalDir.Reverse(), Priority: prioWait}
	}

	// Chase the current path toward the target. An empty path list
	// cannot happen for an active packet — the engine absorbs
	// zero-length-path (source == destination) packets at injection and
	// absorbs en route the moment Cur reaches Dst — so guard with a
	// descriptive panic rather than an index error.
	if len(p.PathList) == 0 {
		panic(fmt.Sprintf("core: packet %d active at node %d with empty path list (source==destination workloads are absorbed at injection)", id, p.Cur))
	}
	prio := prioNormal
	if r.st[id] == stateExcited {
		prio = prioExcited
	}
	return sim.Request{Edge: p.PathList[0], Dir: p.HeadDir, Priority: prio}
}

// OnDeflect implements sim.Notifier: a deflected excited packet reverts
// to normal; a deflected wait packet is interrupted and reverts to
// normal (Section 3).
func (r *Frame) OnDeflect(t int, p *sim.Packet, e graph.EdgeID, kind sim.DeflectKind) {
	id := p.ID
	if r.Events != nil {
		r.flushEvents(t, id)
		if r.st[id] == stateExcited {
			r.Events.RecordEvent(t, id, sim.EventRestore, sim.RestoreDeflected)
		}
	}
	if r.st[id] == stateWait {
		r.S.WaitInterrupts++
		r.clearWait(id)
	}
	if r.st[id] == stateExcited {
		r.S.ExcitedFailures++
	}
	r.st[id] = stateNormal
}

// OnAbsorb implements sim.Notifier.
func (r *Frame) OnAbsorb(t int, p *sim.Packet) {
	if r.Events != nil {
		r.flushEvents(t, p.ID)
		if r.st[p.ID] == stateExcited {
			r.Events.RecordEvent(t, p.ID, sim.EventRestore, sim.RestoreAbsorbed)
		}
	}
	if r.st[p.ID] == stateExcited {
		r.S.ExcitedSuccesses++
	}
	r.clearWait(p.ID)
	r.st[p.ID] = stateNormal
}

// EndStep implements sim.Notifier: at the end of each round excited
// packets become normal; at the end of each phase wait packets become
// normal (Section 3). On a step with no active and no pending packet it
// is a no-op, as sim.InjectionPlanner requires: every effect but the
// clock ranges over the empty active list, and the clock is re-derived
// on a mismatch (see at).
func (r *Frame) EndStep(t int, e *sim.Engine) {
	c := r.at(t)
	roundEnd, phaseEnd := c.roundEnd(r.sched), c.phaseEnd(r.sched)
	r.clk = r.sched.next(c)
	if r.Events != nil {
		// Flush surviving packets' staged events (deflected and
		// absorbed packets flushed theirs at OnDeflect/OnAbsorb) in
		// active-list order.
		for _, i := range e.Active() {
			r.flushEvents(t, i)
		}
	}
	if !roundEnd && !phaseEnd {
		return
	}
	for _, i := range e.Active() {
		switch {
		case phaseEnd:
			// A phase end is also a round end: an excitation episode
			// that survives to the boundary fails here exactly as at a
			// plain round end, so it must be counted before the blanket
			// reset (otherwise Lemma 4.3's success-rate estimate is
			// skewed high at every phase boundary).
			if r.st[i] == stateWait {
				r.clearWait(sim.PacketID(i))
			}
			if r.st[i] == stateExcited {
				r.S.ExcitedFailures++
				if r.Events != nil {
					r.Events.RecordEvent(t, i, sim.EventRestore, sim.RestoreRoundEnd)
				}
			}
			r.st[i] = stateNormal
		case roundEnd:
			if r.st[i] == stateExcited {
				r.S.ExcitedFailures++
				if r.Events != nil {
					r.Events.RecordEvent(t, i, sim.EventRestore, sim.RestoreRoundEnd)
				}
				r.st[i] = stateNormal
			}
		}
	}
}

// flushEvents emits packet id's staged excite/restore events (in that
// order — an excitation precedes any restore within one step) and
// clears the staging. Caller has checked r.Events != nil.
func (r *Frame) flushEvents(t int, id sim.PacketID) {
	if r.evExcited[id] {
		r.evExcited[id] = false
		r.Events.RecordEvent(t, id, sim.EventExcite, 0)
	}
	if reason := r.evRestore[id]; reason >= 0 {
		r.evRestore[id] = -1
		r.Events.RecordEvent(t, id, sim.EventRestore, reason)
	}
}

func (r *Frame) clearWait(id sim.PacketID) {
	r.waitNode[id] = graph.NoNode
	r.waitEdge[id] = graph.NoEdge
}
