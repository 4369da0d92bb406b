package sim

import (
	"fmt"
	"math/rand"
	"slices"

	"hotpotato/internal/graph"
	"hotpotato/internal/workload"
)

// Router is a hot-potato routing algorithm driven by the Engine. The
// engine owns packet motion, conflict resolution and deflection; the
// router owns injection timing and per-packet requests (edge +
// priority). A router whose state follows the step's outcomes also
// implements Notifier.
type Router interface {
	// Name identifies the algorithm in reports.
	Name() string

	// Init is called once before the first step, and again on every
	// Engine.Reset. A router must (re)initialize all of its per-run
	// state here.
	Init(e *Engine)

	// WantInject reports whether the (not yet injected) packet should
	// be injected at step t. The engine additionally requires the
	// source node to be free of active packets (injection in
	// isolation); if it is not, the packet stays out regardless.
	WantInject(t int, p *Packet) bool

	// Request returns the desired traversal for active packet p at
	// step t. The returned edge must leave p.Cur.
	Request(t int, p *Packet) Request
}

// Notifier is an optional Router extension that hears each step's
// outcomes: routers with a per-packet state machine (the frame
// router's excited and wait states, RandGreedy's demotion) advance it
// here. NewEngine resolves it once; a router without it costs no call
// per move, deflection or step.
type Notifier interface {
	// OnDeflect tells the router that p lost its request and was
	// deflected along edge e (kind classifies the slot).
	OnDeflect(t int, p *Packet, e graph.EdgeID, kind DeflectKind)

	// OnAbsorb tells the router that p reached its destination.
	OnAbsorb(t int, p *Packet)

	// EndStep is called after every executed step commits, after the
	// probe and the observers.
	EndStep(t int, e *Engine)
}

// MoveNotifier is an optional Router extension that hears every granted
// request: OnMove tells the router that p's own request was granted, after
// the move commits. It is apart from Notifier because no router in the
// repository acts on a grant, so the engine makes no call per move unless
// a router (or a tracing wrapper) asks for one.
type MoveNotifier interface {
	OnMove(t int, p *Packet)
}

// InjectionPlanner is an optional Router extension. A router
// implementing it certifies a per-packet lower bound on injection
// eligibility that is fixed at Init time: WantInject(t, p) must return
// false for every step t < InjectStep(p). The engine uses the bound to
// park not-yet-eligible packets in a time-sorted release queue and
// sweep only released packets each step, turning the per-step injection
// scan from O(all pending) into O(eligible) — on a large staggered
// workload this is the difference between the step paying for every
// packet in the problem and paying only for the handful near admission.
//
// The bound is an optimization gate, not a schedule: WantInject is
// still consulted for every released packet, so a conservative bound
// (always 0) is always correct and merely forfeits the skipping. That
// also makes embedding safe — a wrapper that overrides WantInject with
// a tighter schedule but inherits InjectStep() == 0 from its embedded
// router behaves identically to the unplanned path. Wrappers should
// still override InjectStep to regain the skipping.
//
// InjectStep is called once per packet per run, on the stepping
// goroutine, after Router.Init.
//
// A planner that is also a Notifier must make EndStep a no-op on a step
// with no active and no pending packet: Engine.Run relies on it to
// fast-forward over such steps without calling the router at all.
type InjectionPlanner interface {
	Router
	// InjectStep returns the earliest step at which WantInject may
	// report true for the (not yet injected) packet. Negative values are
	// treated as 0.
	InjectStep(p *Packet) int
}

// Observer is a read-only per-step hook (tracing, invariant checking).
// It runs after the step commits, before Notifier.EndStep. An attached
// observer sees every step: it turns off Run's idle fast-forward.
type Observer func(t int, e *Engine)

// Metrics aggregates engine-level counters for one run.
type Metrics struct {
	// Steps counts simulated steps, including idle ones that Run
	// fast-forwarded without executing.
	Steps       int
	Injected    int
	Absorbed    int
	Moves       int
	Deflections [4]int // indexed by DeflectKind
	// MaxInFlight is the peak number of simultaneously active packets.
	MaxInFlight int
	// InjectionWaits counts (packet, step) pairs in which a packet
	// wanted in but its source node was occupied.
	InjectionWaits int
	// FaultBlocked counts (packet, step) pairs whose requested edge was
	// down under the engine's fault model.
	FaultBlocked int
	// FaultStalls counts (packet, step) pairs in which an outage left a
	// node with fewer healthy out-slots than occupants, forcing a
	// packet to hold in place for one step (only possible under a fault
	// model; pure hot-potato never stalls).
	FaultStalls int
}

// TotalDeflections sums all deflection kinds.
func (m *Metrics) TotalDeflections() int {
	return m.Deflections[0] + m.Deflections[1] + m.Deflections[2] + m.Deflections[3]
}

// UnsafeDeflections counts deflections that are not safe in the paper's
// sense; the frame router's Lemma 2.1 predicts zero.
func (m *Metrics) UnsafeDeflections() int {
	return m.Deflections[DeflectUnsafeBackward] + m.Deflections[DeflectForward]
}

// Engine is the synchronous bufferless (hot-potato) engine.
//
// The step loop is organized around *live* state only: an active-packet
// list, a pending-injection list and an occupied-node list replace full
// rescans of the packet and node arrays, so a step costs O(active
// packets + occupied nodes + pending injections) rather than O(N +
// nodes + edges). In the large-N / sparse-activity regime (thousands of
// packets, a few percent in flight) this is the difference between the
// engine spending its time routing and spending it skipping absorbed
// packets. The hot path is also allocation-free in steady state: slot
// scratch, loser buffers, occupancy lists and forward-memory dirty
// lists are all reused, and every packet's PathList lives in its own
// segment of one path arena carved at construction.
//
// An Engine steps on the calling goroutine and is not safe for
// concurrent use; independent runs parallelize across engines (see
// internal/mc and internal/campaign).
type Engine struct {
	G       *graph.Leveled
	Packets []Packet
	Rng     *rand.Rand
	M       Metrics

	// Faults, when non-nil, marks edges as down per step: requests for
	// a downed edge lose (the packet is deflected among healthy slots)
	// and deflections never use downed edges. Set before the first
	// Step. Fault models must be pure functions of (edge, step), so
	// that a run is reproducible from its seed.
	Faults FaultModel

	router    Router
	notify    Notifier     // router's Notifier, nil when it has none
	onMove    MoveNotifier // router's MoveNotifier, nil when it has none
	observers []Observer
	now       int
	seed      int64

	// probe/events are the instrumentation hooks (probe.go): nil in the
	// common case, chained fan-outs when attached. snap is the reusable
	// per-step snapshot; lastM the previous step's metrics, diffed to
	// produce per-step deltas without any extra counting on the hot
	// path.
	probe  Probe
	events EventSink
	snap   StepSnapshot
	lastM  Metrics

	// arbSeed keys the counter-based arbitration draws (rng.go); all
	// router-level randomness comes from Rng or router-owned streams.
	arbSeed uint64

	// active lists the in-flight packets; pending lists the packets not
	// yet injected. Both preserve relative packet order (pending starts
	// in ID order; active in injection order) so runs are deterministic
	// per seed.
	active  []PacketID
	pending []PacketID

	// Injection release queue (InjectionPlanner routers). injSchedule
	// packs (releaseStep<<32 | packetID), sorted ascending, built once
	// per run after Router.Init by a radix pass through injSpare (see
	// sortRelease); injCursor is the next unreleased entry.
	// Released packets merge into the ID-ordered pending list through
	// mergeBuf, so the admission sweep and all occupancy interactions
	// are byte-identical to a router without the bound, which keeps
	// every packet in the sweep from step 0 — the queue only determines
	// when a packet first appears in the sweep.
	planner     InjectionPlanner
	injSchedule []uint64
	injSpare    []uint64
	injCursor   int
	mergeBuf    []PacketID

	// Per-node occupancy in flat SoA form: node v's active packets are
	// atList[atOff[v] : atOff[v]+atN[v]], where each node owns a
	// degree-sized segment of atList (occupancy never exceeds degree).
	// Splitting offsets from counts matters: the occupancy rebuild in
	// phase 5 touches ~2 scattered nodes per moving packet (clear + add),
	// and with counts packed two bytes per node the whole count array
	// stays cache-resident even on 50k-node networks, where slice
	// headers (24 bytes/node) made every touch a cold miss. occupied
	// lists the nodes v with atN[v] > 0, each exactly once; occBits
	// mirrors atN[v] > 0 as a bitset so the injection-isolation probe
	// costs one L1-resident bit test. occLo/occHi bound the occupied
	// node IDs (see clearOccupancy).
	atOff    []int32
	atN      []uint16
	atList   []PacketID
	occupied []graph.NodeID
	occBits  []uint64
	occLo    int32
	occHi    int32

	// Forward-traversal memory as per-edge bitsets: bit e of prevFwdBits
	// is set iff some packet traversed edge e forward during the
	// previous step — such an edge is a safe backward deflection slot
	// this step. The deflection phase only ever asks the boolean, so a
	// bitset (1 bit/edge, L1-resident on 100k-edge networks) replaces
	// the old 4-bytes-per-edge PacketID array. prevTouched/curTouched
	// list the dirty edges so per-step resets touch only those bits.
	prevFwdBits []uint64
	curFwdBits  []uint64
	prevTouched []graph.EdgeID
	curTouched  []graph.EdgeID

	// snapLo/snapHi remember the level band last written into the
	// probe snapshot's census, so the next fill zeroes only that band,
	// not the whole depth.
	snapLo int
	snapHi int

	// Scratch reused across steps. Slots are indexed 2*edge+direction,
	// but slot state is never stored per slot: a slot's contenders all
	// stand at the single node it leaves, so arbitration and deflection
	// resolve node by node (resolveNode) against the requesting packets'
	// flat request arrays and a degree-bounded used-slot list — L1-sized
	// scratch, where a 2|E|-entry slot array on a large network meant one
	// cold cache miss per request. reqSlot/reqPrio are written by
	// collectRequest (in active order, i.e. near-sequentially) and read
	// back per node; moves carries each packet's committed traversal,
	// stamped with the step epoch (the epoch survives Reset so the array
	// never needs rewinding). A packet whose move is stamped this epoch
	// has a slot; one whose stamped slot is its request won it.
	epoch   uint32
	reqSlot []int32   // indexed by PacketID; blockedSlot when fault-blocked
	reqPrio []int64   // indexed by PacketID
	moves   []moveRec // indexed by PacketID

	// usedBuf is resolveNode's claimed-slot list for one node (winners
	// plus deflections), loserBuf deflectLosers' loser list; both are
	// degree-bounded. excited counts this step's requests at or above
	// ExcitedPriority, kept only while a probe is attached.
	usedBuf  []int32
	loserBuf []PacketID
	excited  int

	// Path arena. Packet i owns the segment [pathLo[i], ...) of two
	// parallel columns: pathEdges, which its PathList windows, and
	// pathSlots, which holds each entry's traversal slot (edge<<1|dir,
	// the direction in which the entry leaves the node before it). The
	// window sits at the segment's tail, its head at offset pathHead[i]:
	// a pop advances the head and reads the new HeadDir from the slot
	// column, a prepend retreats it and writes the reverse of the
	// traversal's slot. Home segments, pathUnit entries each, are carved
	// at construction at the longest preselected path plus headroom; a
	// packet whose prepends outrun its pops past that headroom moves to
	// a larger segment past pathEnd (growPath), which Reset reclaims.
	pathEdges []graph.EdgeID
	pathSlots []int32
	pathLo    []int32
	pathHead  []int32
	pathUnit  int
	pathEnd   int
}

// stallSlot marks a packet that holds in place for one step because a
// fault left its node without a healthy out-slot.
const stallSlot int32 = -1

// slotIndex packs an (edge, direction) capacity unit into an array
// index.
func slotIndex(e graph.EdgeID, d graph.Direction) int32 {
	return int32(e)<<1 | int32(d)
}

// slotEdge and slotDir unpack a slot index.
func slotEdge(s int32) graph.EdgeID   { return graph.EdgeID(s >> 1) }
func slotDir(s int32) graph.Direction { return graph.Direction(s & 1) }

// blockedSlot marks a request rejected by the fault schedule in
// reqSlot; the packet holds no claim and falls through to deflection.
const blockedSlot int32 = -2

// moveRec is the per-packet committed move: epoch stamp + slot.
type moveRec struct {
	epoch uint32
	slot  int32
}

// bitGet/bitSet/bitClear operate on the engine's uint64 bitsets.
func bitGet(b []uint64, i int32) bool { return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0 }
func bitSet(b []uint64, i int32)      { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }
func bitClear(b []uint64, i int32)    { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

// injPack packs a (releaseStep, packet) pair so that slices.Sort on the
// packed values yields (release, then ID) order.
func injPack(rel int, pid PacketID) uint64 {
	if rel < 0 {
		rel = 0
	}
	if rel > 1<<31-1 {
		rel = 1<<31 - 1
	}
	return uint64(rel)<<32 | uint64(uint32(pid))
}

// sortRelease puts a release schedule in (release, ID) order in O(n):
// the order slices.Sort gives the packed values. The entries must come
// in ascending packet ID, as Reset appends them, so a stable LSD radix
// sort on the release step alone — one counting pass per byte, skipping
// the bytes every entry shares — finishes the job. spare is scratch of
// len(sched); the sorted entries come back in one of the two slices and
// the other is returned as the next call's spare.
func sortRelease(sched, spare []uint64) (sorted, rest []uint64) {
	if len(sched) == 0 {
		return sched, spare
	}
	var counts [4][256]int32
	for _, v := range sched {
		rel := uint32(v >> 32)
		counts[0][byte(rel)]++
		counts[1][byte(rel>>8)]++
		counts[2][byte(rel>>16)]++
		counts[3][byte(rel>>24)]++
	}
	for d := range counts {
		c, shift := &counts[d], 32+8*d
		if int(c[byte(sched[0]>>shift)]) == len(sched) {
			continue
		}
		var at int32
		for b, n := range c {
			c[b] = at
			at += n
		}
		for _, v := range sched {
			b := byte(v >> shift)
			spare[c[b]] = v
			c[b]++
		}
		sched, spare = spare, sched
	}
	return sched, spare
}

// NewEngine builds an engine for the problem with the given router and
// seed. Packet i corresponds to path i of the problem. A packet with an
// empty preselected path (source == destination) is absorbed
// immediately at step 0 without ever becoming active: it occupies no
// node and the router never sees a Request for it.
func NewEngine(p *workload.Problem, r Router, seed int64) *Engine {
	e := &Engine{
		G:           p.G,
		Rng:         rand.New(rand.NewSource(seed)),
		router:      r,
		prevFwdBits: make([]uint64, (p.G.NumEdges()+63)/64),
		curFwdBits:  make([]uint64, (p.G.NumEdges()+63)/64),
		occBits:     make([]uint64, (p.G.NumNodes()+63)/64),
	}
	// Node occupancy is bounded by degree (at most one arrival per
	// incident edge per step; injection requires an empty node), so
	// every per-node occupancy list is carved out of one flat backing
	// array of total size 2|E|. Lists then never grow beyond their
	// segment and the hot path never allocates for a newly visited
	// node.
	e.atOff = make([]int32, p.G.NumNodes())
	e.atN = make([]uint16, p.G.NumNodes())
	e.atList = make([]PacketID, 2*p.G.NumEdges())
	for v, off := 0, 0; v < p.G.NumNodes(); v++ {
		d := p.G.Node(graph.NodeID(v)).Degree()
		if d >= 1<<16 {
			panic("sim: node degree exceeds the engine's uint16 occupancy counts")
		}
		e.atOff[v] = int32(off)
		off += d
	}
	e.reqSlot = make([]int32, p.N())
	e.reqPrio = make([]int64, p.N())
	e.moves = make([]moveRec, p.N())
	// Scratch lists are preallocated at their tight bounds so steady
	// state performs no growth reallocations at all.
	e.active = make([]PacketID, 0, p.N())
	e.occupied = make([]graph.NodeID, 0, min(p.N(), p.G.NumNodes()))
	e.curTouched = make([]graph.EdgeID, 0, min(p.N(), p.G.NumEdges()))
	e.prevTouched = make([]graph.EdgeID, 0, min(p.N(), p.G.NumEdges()))
	e.Packets = make([]Packet, p.N())
	e.pending = make([]PacketID, 0, p.N())
	if _, ok := r.(InjectionPlanner); ok {
		// Only planners keep a release schedule.
		e.injSchedule = make([]uint64, 0, p.N())
		e.injSpare = make([]uint64, p.N())
	}
	e.mergeBuf = make([]PacketID, 0, p.N())
	// Src and Dst are constants of the problem: set here once, kept by
	// every Reset.
	for i, path := range p.Set.Paths {
		pk := &e.Packets[i]
		pk.Preselected = path
		pk.Src, pk.Dst = graph.NoNode, graph.NoNode
		if len(path) > 0 {
			pk.Src, pk.Dst = p.G.PathSource(path), p.G.PathDest(path)
		}
	}
	// Carve every packet's path segment from one arena, sized at the
	// longest preselected path plus prepend headroom, so injection
	// allocates nothing.
	maxLen := 0
	for i, path := range p.Set.Paths {
		maxLen = max(maxLen, len(path))
		if len(path) == 0 {
			continue
		}
		v := p.G.PathSource(path)
		for _, ed := range path {
			if p.G.DirectionFrom(ed, v) != graph.Forward {
				panic(fmt.Sprintf("sim: packet %d: preselected path edge %d is not forward", i, ed))
			}
			v = p.G.EndpointAt(ed, graph.Forward)
		}
	}
	e.pathUnit = maxLen + 8
	if p.N()*e.pathUnit >= 1<<30 {
		panic("sim: path arena exceeds the engine's int32 offsets")
	}
	e.pathEdges = make([]graph.EdgeID, p.N()*e.pathUnit)
	e.pathSlots = make([]int32, len(e.pathEdges))
	e.pathLo = make([]int32, p.N())
	e.pathHead = make([]int32, p.N())
	e.notify, _ = r.(Notifier)
	e.onMove, _ = r.(MoveNotifier)
	e.Reset(seed)
	return e
}

// Reset rewinds the engine to step 0 with a new seed, reusing every
// allocation: the flat occupancy backing, the path arena and slot
// scratch all survive, so a
// Monte-Carlo worker can run thousands of trials on one engine without
// rebuilding it (see mc.Run). Observers are per-run attachments and are
// cleared; the router is re-initialized through Router.Init. Resetting
// an engine mid-run is allowed.
func (e *Engine) Reset(seed int64) {
	e.seed = seed
	e.Rng.Seed(seed)
	e.arbSeed = arbStream(seed)
	e.M = Metrics{}
	e.now = 0
	e.observers = e.observers[:0]
	// Probes and event sinks are per-run attachments like observers:
	// cleared here, re-attached by the caller after Reset.
	e.probe = nil
	e.events = nil
	e.lastM = Metrics{}
	// The epoch deliberately keeps counting across runs: slot and move
	// records from the previous run are stale by construction and never
	// need clearing. Forward memory and occupancy are rolled back through
	// their dirty lists, which also covers engines reset in the middle of
	// a run.
	for _, ed := range e.prevTouched {
		bitClear(e.prevFwdBits, int32(ed))
	}
	for _, ed := range e.curTouched {
		bitClear(e.curFwdBits, int32(ed))
	}
	e.prevTouched = e.prevTouched[:0]
	e.curTouched = e.curTouched[:0]
	e.clearOccupancy()
	e.occupied = e.occupied[:0]
	e.active = e.active[:0]
	e.pending = e.pending[:0]
	e.pathEnd = len(e.Packets) * e.pathUnit
	for i := range e.Packets {
		p := &e.Packets[i]
		*p = Packet{
			ID:          PacketID(i),
			Cur:         graph.NoNode,
			Src:         p.Src,
			Dst:         p.Dst,
			Preselected: p.Preselected,
			InjectTime:  -1,
			AbsorbTime:  -1,
			ArrivalEdge: graph.NoEdge,
		}
		if len(p.Preselected) > 0 {
			e.pending = append(e.pending, p.ID)
		} else {
			// Zero-length path: the packet is already where it is
			// going. Absorb it up front so no Request can ever index an
			// empty PathList.
			p.Absorbed = true
			p.InjectTime = 0
			p.AbsorbTime = 0
			e.M.Injected++
			e.M.Absorbed++
		}
	}
	e.router.Init(e)

	// With an InjectionPlanner router, park the pending packets in a
	// release queue sorted by (InjectStep, ID) — pending is in ID order,
	// so a radix pass on the release step sorts it — and drain the
	// pending list entirely: Step's prologue re-admits each packet into
	// the ID-ordered pending list at its release step, so the per-step
	// WantInject sweep touches only packets whose lower bound has
	// passed. The schedule is built here — after Router.Init — because
	// planners typically derive it from state randomized at Init (the
	// frame router's set assignment).
	e.planner = nil
	e.injSchedule = e.injSchedule[:0]
	e.injCursor = 0
	if pl, ok := e.router.(InjectionPlanner); ok {
		e.planner = pl
		for _, pid := range e.pending {
			e.injSchedule = append(e.injSchedule, injPack(pl.InjectStep(&e.Packets[pid]), pid))
		}
		e.injSchedule, e.injSpare = sortRelease(e.injSchedule, e.injSpare[:len(e.injSchedule)])
		e.pending = e.pending[:0]
	}
}

// Seed returns the seed of the current run. Routers can derive
// order-independent randomness streams from it via StreamSeed.
func (e *Engine) Seed() int64 { return e.seed }

// Now returns the current step number (the step about to execute, or
// just executed inside observers).
func (e *Engine) Now() int { return e.now }

// At returns the active packets at node v (engine-owned; do not
// mutate).
func (e *Engine) At(v graph.NodeID) []PacketID {
	off := e.atOff[v]
	return e.atList[off : off+int32(e.atN[v])]
}

// InFlight returns the number of currently active packets.
func (e *Engine) InFlight() int { return len(e.active) }

// Active returns the in-flight packets in injection order
// (engine-owned; do not mutate). Routers and observers should iterate
// this instead of the full packet array when they only care about live
// packets.
func (e *Engine) Active() []PacketID { return e.active }

// Window returns the active level band: the smallest [lo, hi] such that
// every in-flight packet sits at a level in [lo, hi]. With no packets in
// flight it returns (0, -1). It recounts the active list on each call
// (O(in flight)); under the frame schedule the band tracks the
// frontier, so observers can skip the provably empty levels of a deep
// network (see core.Schedule.ActiveBand for the schedule-side bound).
func (e *Engine) Window() (lo, hi int) {
	if len(e.active) == 0 {
		return 0, -1
	}
	lo, hi = e.G.Depth(), 0
	for _, pid := range e.active {
		l := int(e.Packets[pid].Level)
		lo, hi = min(lo, l), max(hi, l)
	}
	return lo, hi
}

// AddObserver registers a per-step hook.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// Done reports whether every packet has been absorbed.
func (e *Engine) Done() bool {
	return e.M.Absorbed == len(e.Packets)
}

// Run executes steps until all packets are absorbed or maxSteps is
// reached, and returns the number of steps simulated and whether the run
// completed.
//
// Quiescent stretches are fast-forwarded: while no packet is active or
// pending, no forward-memory bit is live, no observer, probe or event
// sink is attached and the router is an InjectionPlanner, every step up
// to the next scheduled release would commit nothing, so Run advances
// the clock (Now and M.Steps) to min(next release, maxSteps) in O(1)
// instead of executing each empty Step. The trace is unchanged: an
// empty step reads no randomness, no fault model and no occupancy, and
// the planner contract makes its EndStep (if any) a no-op. Step itself always
// executes exactly one step.
func (e *Engine) Run(maxSteps int) (int, bool) {
	for e.now < maxSteps && !e.Done() {
		// Testing the active list first keeps the busy path to one compare.
		if len(e.active) == 0 {
			if next := e.idleUntil(maxSteps); next > e.now {
				e.now = next
				e.M.Steps = next
				continue
			}
		}
		e.Step()
	}
	return e.now, e.Done()
}

// idleUntil returns the step up to which the engine, with no packet
// active, is provably idle — the next scheduled release, capped at
// maxSteps — or the current step when the next Step could do anything
// observable. Steps before the next release admit nothing: Step's
// prologue has already released every entry due at or before the last
// executed step.
func (e *Engine) idleUntil(maxSteps int) int {
	if e.planner == nil || len(e.pending) > 0 || len(e.prevTouched) > 0 ||
		len(e.observers) > 0 || e.probe != nil || e.events != nil || e.injCursor == len(e.injSchedule) {
		return e.now
	}
	return min(int(e.injSchedule[e.injCursor]>>32), maxSteps)
}

// clearOccupancy zeroes the occupancy counts and bits of every
// occupied node. Two strategies, picked per call: when the occupied
// node-ID range (occLo..occHi, tracked by addAt) is not much wider than
// the occupied count, one memclr over the 2-byte count arena (and the
// covering occBits words) clears the whole range at cache-line width —
// 32 counts per line, no scattered read-modify-write — which is how a
// dense range beats the per-node walk; otherwise (sparse occupancy
// across a wide range) the scattered per-node clear touches exactly the
// dirty entries. Nodes outside the range hold no packet, so zeroing the
// already-zero remainder is free.
func (e *Engine) clearOccupancy() {
	// Wide when the range costs at most ~16 cleared bytes per occupied
	// node (2-byte counts, 8:1 range:occupied ratio) — below the cost
	// of a scattered store pair per node.
	if n := len(e.occupied); n > 0 && int(e.occHi-e.occLo)+1 <= 8*n {
		clear(e.atN[e.occLo : e.occHi+1])
		clear(e.occBits[e.occLo>>6 : e.occHi>>6+1])
	} else {
		for _, v := range e.occupied {
			e.atN[v] = 0
			bitClear(e.occBits, int32(v))
		}
	}
	e.occLo, e.occHi = int32(len(e.atN)), -1
}

// addAt places an active packet at node v, keeping the occupied-node
// list and its ID range consistent.
func (e *Engine) addAt(v graph.NodeID, pid PacketID) {
	n := e.atN[v]
	if n == 0 {
		e.occupied = append(e.occupied, v)
		bitSet(e.occBits, int32(v))
		e.occLo, e.occHi = min(e.occLo, int32(v)), max(e.occHi, int32(v))
	}
	e.atList[e.atOff[v]+int32(n)] = pid
	e.atN[v] = n + 1
}

// placePath writes pre into packet pid's home segment as its path
// list, at the segment's tail so all slack sits in front of the window,
// where prepends (deflections) consume it and pops (forward moves) add
// to it. Every preselected entry leaves its node forward.
func (e *Engine) placePath(pid PacketID, pre graph.Path) {
	lo := int(pid) * e.pathUnit
	h := lo + e.pathUnit - len(pre)
	copy(e.pathEdges[h:], pre)
	for i, ed := range pre {
		e.pathSlots[h+i] = slotIndex(ed, graph.Forward)
	}
	e.pathLo[pid], e.pathHead[pid] = int32(lo), int32(h)
	e.Packets[pid].PathList = e.pathEdges[h : lo+e.pathUnit]
}

// growPath moves packet p's path list, whose prepends have consumed its
// segment's front slack, to a fresh segment of twice its length past
// pathEnd, growing the arena — and re-pointing every live window into
// it — when the arena is full. Prepends outnumbering pops by more than
// the injection headroom take a sustained deflection storm, so this is
// the cold path.
func (e *Engine) growPath(p *Packet) {
	n := len(p.PathList)
	size := 2*n + 8
	if e.pathEnd+size > len(e.pathEdges) {
		if e.pathEnd+size >= 1<<31 {
			panic("sim: path arena exceeds the engine's int32 offsets")
		}
		edges := make([]graph.EdgeID, len(e.pathEdges)+len(e.pathEdges)/4+size)
		slots := make([]int32, len(edges))
		copy(edges, e.pathEdges[:e.pathEnd])
		copy(slots, e.pathSlots[:e.pathEnd])
		e.pathEdges, e.pathSlots = edges, slots
		for i := range e.Packets {
			if q := &e.Packets[i]; q.Active {
				h := int(e.pathHead[i])
				q.PathList = edges[h : h+len(q.PathList)]
			}
		}
	}
	old, lo := int(e.pathHead[p.ID]), e.pathEnd
	h := lo + size - n
	copy(e.pathEdges[h:], e.pathEdges[old:old+n])
	copy(e.pathSlots[h:], e.pathSlots[old:old+n])
	e.pathEnd += size
	e.pathLo[p.ID], e.pathHead[p.ID] = int32(lo), int32(h)
	p.PathList = e.pathEdges[h : h+n]
}

// Step executes one synchronous time step.
func (e *Engine) Step() {
	t := e.now

	// Phase 1 prologue: release packets whose InjectStep bound has
	// passed from the schedule into the pending list. Entries are
	// consumed in (release, ID) order as one batched run; the rel bits
	// are masked off in place (the schedule is rebuilt every Reset) and
	// the run is admitted so that pending stays in ascending ID order
	// exactly as if every packet had been there from step 0. The batch
	// is processed without a sort in the common cases: a run released at
	// a single step is already ID-sorted (the schedule orders equal
	// release steps by ID), and with no stragglers in pending the run
	// appends into the pending buffer directly; only a multi-step
	// catch-up run interleaved with waiting packets pays the sort+merge.
	if e.planner != nil && e.injCursor < len(e.injSchedule) {
		lo := e.injCursor
		for e.injCursor < len(e.injSchedule) && int(e.injSchedule[e.injCursor]>>32) <= t {
			e.injCursor++
		}
		if rel := e.injSchedule[lo:e.injCursor]; len(rel) > 0 {
			sorted := true
			for i := range rel {
				rel[i] &= 0xffffffff
				if i > 0 && rel[i-1] > rel[i] {
					sorted = false
				}
			}
			if !sorted {
				slices.Sort(rel)
			}
			if len(e.pending) == 0 {
				for _, r := range rel {
					e.pending = append(e.pending, PacketID(uint32(r)))
				}
			} else {
				out := e.mergeBuf[:0]
				i, j := 0, 0
				for i < len(e.pending) && j < len(rel) {
					if e.pending[i] < PacketID(uint32(rel[j])) {
						out = append(out, e.pending[i])
						i++
					} else {
						out = append(out, PacketID(uint32(rel[j])))
						j++
					}
				}
				out = append(out, e.pending[i:]...)
				for ; j < len(rel); j++ {
					out = append(out, PacketID(uint32(rel[j])))
				}
				e.mergeBuf = e.pending[:0]
				e.pending = out
			}
		}
	}

	// Phase 1: injection in isolation. A packet enters only when its
	// router wants it in and its source node holds no active packet.
	// Only never-injected packets are scanned; injected ones leave the
	// pending list for good.
	if len(e.pending) > 0 {
		keep := e.pending[:0]
		for _, pid := range e.pending {
			p := &e.Packets[pid]
			if !e.router.WantInject(t, p) {
				keep = append(keep, pid)
				continue
			}
			if bitGet(e.occBits, int32(p.Src)) {
				e.M.InjectionWaits++
				keep = append(keep, pid)
				continue
			}
			p.Active = true
			p.Cur = p.Src
			p.Level = int32(e.G.LevelOf(p.Src))
			p.InjectTime = t
			e.placePath(pid, p.Preselected)
			p.ArrivalEdge = graph.NoEdge
			p.HeadDir = graph.Forward
			e.addAt(p.Src, pid)
			e.active = append(e.active, pid)
			e.M.Injected++
			if e.events != nil {
				e.events.RecordEvent(t, pid, EventInject, int32(p.Src))
			}
		}
		e.pending = keep
	}
	if len(e.active) > e.M.MaxInFlight {
		e.M.MaxInFlight = len(e.active)
	}

	// Phases 2+3: collect requests in active order, then resolve the
	// occupied nodes in list order: pick each requested slot's winner and
	// deflect the losers. Both are node-local — every contender for a
	// slot stands at the single node the slot leaves — and the
	// counter-based arbitration keys (rng.go) make each winner
	// independent of enumeration order.
	e.epoch++
	e.excited = 0
	for _, pid := range e.active {
		e.collectRequest(t, pid)
	}
	for _, v := range e.occupied {
		// A lone occupant whose request the fault model let through
		// wins it outright: the common case under sparse load, granted
		// here without a call.
		if e.atN[v] == 1 {
			pid := e.atList[e.atOff[v]]
			if s := e.reqSlot[pid]; s != blockedSlot {
				e.moves[pid] = moveRec{epoch: e.epoch, slot: s}
				continue
			}
		}
		e.resolveNode(t, v)
	}

	// Phases 4+5, fused: clear the old occupancy, then one sweep over
	// the active list commits all moves simultaneously and rebuilds
	// occupancy from the survivors, touching only live nodes (no router
	// callback observes occupancy, so clearing before the commits is
	// unobservable). Forward-memory bits from the previous use of the
	// curFwdBits set are cleared via its dirty list instead of a full
	// bitset sweep.
	for _, ed := range e.curTouched {
		bitClear(e.curFwdBits, int32(ed))
	}
	e.curTouched = e.curTouched[:0]
	e.clearOccupancy()
	e.occupied = e.occupied[:0]
	n := 0
	for _, pid := range e.active {
		mv := e.moves[pid]
		if mv.epoch != e.epoch {
			panic(fmt.Sprintf("sim: step %d: active packet %d has no move (hot-potato requires all packets to leave)", t, pid))
		}
		p := &e.Packets[pid]
		if mv.slot != stallSlot {
			e.applyMove(t, p, mv.slot)
			if !p.Active {
				continue // absorbed this step
			}
		}
		e.active[n] = pid
		n++
		e.addAt(p.Cur, pid)
	}
	e.active = e.active[:n]
	e.prevFwdBits, e.curFwdBits = e.curFwdBits, e.prevFwdBits
	e.prevTouched, e.curTouched = e.curTouched, e.prevTouched

	e.now++
	e.M.Steps = e.now
	if e.probe != nil {
		e.emitSnapshot(t, e.excited)
	}
	for _, o := range e.observers {
		o(t, e)
	}
	if e.notify != nil {
		e.notify.EndStep(t, e)
	}
}

// collectRequest gathers one packet's request into the flat per-packet
// request arrays (reqSlot/reqPrio); no shared slot state is touched, so
// the sweep streams through memory. Winner resolution happens afterwards
// in resolveNode, node by node.
func (e *Engine) collectRequest(t int, pid PacketID) {
	p := &e.Packets[pid]
	req := e.router.Request(t, p)
	// Fast-path validation: the head traversal in the engine-maintained
	// head direction is valid by construction and costs no load at all;
	// any other request is well-formed iff the edge exists and
	// traversing it in req.Dir originates at the packet's node — the
	// origin endpoint is one bounds-checked load from the graph's flat
	// edge-ends array. The descriptive diagnostics live in checkRequest,
	// consulted only once the cheap checks have already failed.
	if len(p.PathList) == 0 || req.Edge != p.PathList[0] || req.Dir != p.HeadDir {
		if uint32(req.Edge) >= uint32(e.G.NumEdges()) || e.G.EndpointAt(req.Edge, req.Dir.Reverse()) != p.Cur {
			panic(fmt.Sprintf("sim: step %d: %v", t, e.checkRequest(p, req)))
		}
	}
	if e.probe != nil && req.Priority >= ExcitedPriority {
		e.excited++
	}
	if e.Faults != nil && e.Faults(req.Edge, t) {
		e.M.FaultBlocked++
		e.reqSlot[pid] = blockedSlot
		return
	}
	e.reqSlot[pid] = slotIndex(req.Edge, req.Dir)
	e.reqPrio[pid] = req.Priority
}

// resolveNode arbitrates the requested slots among the packets at node
// v and assigns deflection slots to the losers. Every contender for a
// slot stands at the single node the slot leaves, so the whole
// resolution is node-local: the scratch is the node's occupancy list
// (degree-bounded) plus a used-slot list of the same size, and the
// winner of an equal-priority conflict is the contender with the
// largest counter-based arbitration key — a commutative rule, so any
// enumeration order yields the same winner (each of k contenders wins
// with probability 1/k; see rng.go). Keys are only computed when a slot
// actually has two equal-priority contenders. Step grants a lone
// occupant's unblocked request itself and calls this for the rest.
func (e *Engine) resolveNode(t int, v graph.NodeID) {
	occ := e.At(v)
	used := e.usedBuf[:0]
	for i, pid := range occ {
		s := e.reqSlot[pid]
		if s == blockedSlot {
			continue
		}
		// An earlier occupant requesting the same slot already resolved
		// it (including this pid as a contender).
		dup := false
		for _, q := range occ[:i] {
			if e.reqSlot[q] == s {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		w, wp := pid, e.reqPrio[pid]
		var sk, wk uint64 // slot word and winner key, once keyed
		keyed, slotKeyed := false, false
		for _, q := range occ[i+1:] {
			if e.reqSlot[q] != s {
				continue
			}
			switch qp := e.reqPrio[q]; {
			case qp > wp:
				w, wp, keyed = q, qp, false
			case qp == wp:
				if !slotKeyed {
					sk, slotKeyed = arbSlot(e.arbSeed, t, s), true
				}
				if !keyed {
					wk, keyed = arbDraw(sk, w), true
				}
				if qk := arbDraw(sk, q); qk > wk || (qk == wk && q > w) {
					w, wk = q, qk
				}
			}
		}
		e.moves[w] = moveRec{epoch: e.epoch, slot: s}
		used = append(used, s)
	}
	e.usedBuf = used
	e.deflectLosers(t, v, occ)
}

// checkRequest diagnoses an invalid request (cold path: collectRequest
// has already rejected it with the cheap origin check; this re-derives
// which condition failed for the panic message).
func (e *Engine) checkRequest(p *Packet, req Request) error {
	if req.Edge < 0 || int(req.Edge) >= e.G.NumEdges() {
		return fmt.Errorf("packet %d requested unknown edge %d", p.ID, req.Edge)
	}
	ed := e.G.Edge(req.Edge)
	if ed.From != p.Cur && ed.To != p.Cur {
		return fmt.Errorf("packet %d at node %d requested non-incident edge %d", p.ID, p.Cur, req.Edge)
	}
	if e.G.DirectionFrom(req.Edge, p.Cur) != req.Dir {
		return fmt.Errorf("packet %d at node %d requested edge %d in direction %s which does not leave the node",
			p.ID, p.Cur, req.Edge, req.Dir)
	}
	return nil
}

// deflectLosers assigns outgoing slots to the packets at node v whose
// requests were not granted (those without a move this epoch),
// preferring (1) the reverse of each packet's own arrival, (2) safe
// backward slots recycled from the previous step's forward traversals,
// (3) any backward slot, (4) any forward slot. Under the paper's
// preconditions only (1) and (2) occur. Claimed slots live in usedBuf
// (seeded by resolveNode with the granted slots). Each deflection is
// counted, recorded and reported to the router as it is assigned, so
// callbacks and events follow the occupied-list order of the nodes.
func (e *Engine) deflectLosers(t int, v graph.NodeID, occ []PacketID) {
	losers := e.loserBuf[:0]
	for _, pid := range occ {
		if e.moves[pid].epoch != e.epoch {
			losers = append(losers, pid)
		}
	}
	e.loserBuf = losers
	if len(losers) == 0 {
		return
	}
	node := e.G.Node(v)

	// Pass 1: own arrival reverse. The arrival traversal ends at v, so
	// its reverse leaves v.
	n := 0
	for _, pid := range losers {
		if p := &e.Packets[pid]; p.ArrivalEdge != graph.NoEdge {
			if s := slotIndex(p.ArrivalEdge, p.ArrivalDir.Reverse()); e.slotFree(t, s) {
				e.deflect(t, pid, s, DeflectArrivalReverse)
				continue
			}
		}
		losers[n] = pid
		n++
	}
	losers = losers[:n]

	// Pass 2: safe backward (edges forward-traversed last step).
	n = 0
	for _, pid := range losers {
		found := false
		for _, ed := range node.Down {
			if s := slotIndex(ed, graph.Backward); bitGet(e.prevFwdBits, int32(ed)) && e.slotFree(t, s) {
				e.deflect(t, pid, s, DeflectSafeBackward)
				found = true
				break
			}
		}
		if !found {
			losers[n] = pid
			n++
		}
	}

	// Pass 3: any backward; Pass 4: any forward.
nextLoser:
	for _, pid := range losers[:n] {
		for _, ed := range node.Down {
			if s := slotIndex(ed, graph.Backward); e.slotFree(t, s) {
				e.deflect(t, pid, s, DeflectUnsafeBackward)
				continue nextLoser
			}
		}
		for _, ed := range node.Up {
			if s := slotIndex(ed, graph.Forward); e.slotFree(t, s) {
				e.deflect(t, pid, s, DeflectForward)
				continue nextLoser
			}
		}
		if e.Faults == nil {
			panic(fmt.Sprintf("sim: step %d: node %d: no free slot for deflected packet %d (capacity violated)", t, v, pid))
		}
		// An outage consumed the node's slack: the packet holds for one
		// step (stallSlot), the bufferless model's local escape hatch
		// under faults.
		e.moves[pid] = moveRec{epoch: e.epoch, slot: stallSlot}
		e.M.FaultStalls++
		if e.events != nil {
			e.events.RecordEvent(t, pid, EventStall, 0)
		}
	}
}

// slotFree reports whether slot s is unclaimed at the node being
// resolved and its edge is up at step t.
func (e *Engine) slotFree(t int, s int32) bool {
	for _, u := range e.usedBuf {
		if u == s {
			return false
		}
	}
	return e.Faults == nil || !e.Faults(slotEdge(s), t)
}

// deflect claims slot s for loser pid and counts, records and reports
// the deflection.
func (e *Engine) deflect(t int, pid PacketID, s int32, kind DeflectKind) {
	e.usedBuf = append(e.usedBuf, s)
	e.moves[pid] = moveRec{epoch: e.epoch, slot: s}
	p := &e.Packets[pid]
	p.Deflections++
	e.M.Deflections[kind]++
	if e.events != nil {
		e.events.RecordEvent(t, pid, EventDeflect, int32(kind))
	}
	if e.notify != nil {
		e.notify.OnDeflect(t, p, slotEdge(s), kind)
	}
}

// applyMove commits one traversal and updates path bookkeeping: a
// traversal of the path head (the move's slot equals the head's slot)
// pops it, anything else prepends (the paper's deflection rule, which
// also covers wait-state oscillation). Both are O(1) window moves over
// the packet's arena segment (see pathEdges).
func (e *Engine) applyMove(t int, p *Packet, s int32) {
	ed, dir := slotEdge(s), slotDir(s)
	pid := p.ID
	h := e.pathHead[pid]
	if len(p.PathList) > 0 && e.pathSlots[h] == s {
		h++
		p.PathList = p.PathList[1:]
		if len(p.PathList) > 0 {
			p.HeadDir = slotDir(e.pathSlots[h])
		}
	} else {
		// Prepend: the new head retraces this traversal.
		if h == e.pathLo[pid] {
			e.growPath(p)
			h = e.pathHead[pid]
		}
		h--
		e.pathEdges[h] = ed
		e.pathSlots[h] = s ^ 1
		p.PathList = e.pathEdges[h : int(h)+1+len(p.PathList)]
		p.HeadDir = dir.Reverse()
	}
	e.pathHead[pid] = h
	p.Cur = e.G.EndpointAt(ed, dir)
	p.ArrivalEdge = ed
	p.ArrivalDir = dir
	if dir == graph.Forward {
		p.Level++
		p.ForwardMoves++
		bitSet(e.curFwdBits, int32(ed))
		e.curTouched = append(e.curTouched, ed)
	} else {
		p.Level--
		p.BackwardMoves++
	}
	e.M.Moves++
	if e.onMove != nil && s == e.reqSlot[pid] {
		e.onMove.OnMove(t, p)
	}
	if p.Cur == p.Dst {
		p.Active = false
		p.Absorbed = true
		p.AbsorbTime = t + 1
		p.PathList = nil
		e.M.Absorbed++
		if e.notify != nil {
			e.notify.OnAbsorb(t, p)
		}
		if e.events != nil {
			e.events.RecordEvent(t, p.ID, EventAbsorb, int32(p.Dst))
		}
	}
}
