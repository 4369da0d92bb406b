package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"hotpotato/internal/graph"
	"hotpotato/internal/workload"
)

// Scheduler decides, for a store-and-forward run, when each packet may
// start and which queued packet crosses each contended edge each step.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Init is called once with the engine before the first step.
	Init(e *SFEngine)
	// ReadyAt returns the earliest step at which the packet may be
	// injected (0 for immediate start; random initial delays implement
	// Leighton-Maggs-Rao-style scheduling).
	ReadyAt(p *Packet) int
	// Pick selects which of the queued packets crosses edge e this
	// step. queue is non-empty; the returned ID must be an element.
	Pick(t int, e graph.EdgeID, queue []PacketID) PacketID
}

// SFMetrics aggregates store-and-forward run counters.
type SFMetrics struct {
	Steps       int
	Injected    int
	Absorbed    int
	Moves       int
	QueueDelay  int // total packet-steps spent waiting in queues
	MaxQueueLen int // peak per-edge queue length
	// Blocked counts (edge, step) pairs at which a picked packet could
	// not advance because the downstream buffer was full (bounded mode
	// only).
	Blocked int
	// InjectionBlocked counts (packet, step) pairs in which a ready
	// packet could not enter its first queue for lack of buffer space.
	InjectionBlocked int
}

// SFEngine is the synchronous store-and-forward engine: each edge holds
// a queue of waiting packets at its From node and forwards one per step
// (packets move only forward along their preselected paths). With
// Cap == 0 buffers are unbounded, the classic O(C+D) setting; with
// Cap > 0 each edge queue holds at most Cap packets and full buffers
// exert backpressure — the constant-buffer regime of Leighton et al.
// [16] that the paper cites for leveled networks. Forward-only paths on
// a DAG make backpressure deadlock-free: the topmost occupied queue can
// always drain.
//
// Like the hot-potato Engine, the step loop touches only live state: a
// pending-injection list replaces the full packet rescan, and the move
// loop visits only edges with non-empty queues (in the same
// From-level-descending order as before) instead of sweeping every
// edge.
type SFEngine struct {
	G       *graph.Leveled
	Packets []Packet
	Rng     *rand.Rand
	M       SFMetrics
	// Cap is the per-edge buffer capacity (0 = unbounded). Set before
	// the first Step.
	Cap int

	sched Scheduler
	now   int
	seed  int64

	// Instrumentation (probe.go). Per-run attachments, cleared by Reset;
	// all step-loop uses are nil-gated so the disabled path stays free.
	probe  SFProbe
	events EventSink
	snap   StepSnapshot
	lastM  SFMetrics

	// queue[e] lists packets waiting to cross edge e.
	queue   [][]PacketID
	readyAt []int
	// pendingInject lists never-injected packets in ID order.
	pendingInject []PacketID
	// edgesByLevelDesc lists edge IDs ordered by From-level descending,
	// so draining the top first frees buffers for upstream moves within
	// the same step.
	edgesByLevelDesc []graph.EdgeID
	// descPos[e] is edge e's position in edgesByLevelDesc. activePos
	// lists, in ascending order, the positions of edges with non-empty
	// queues; newPos stages positions of edges that just went
	// empty->non-empty, merged (and re-sorted) at the top of each step.
	// Ascending position order equals descending From-level order, so
	// iterating activePos drains top levels first exactly as a full
	// sweep of edgesByLevelDesc did.
	descPos   []int32
	activePos []int32
	newPos    []int32
}

// NewSFEngine builds a store-and-forward engine with unbounded buffers.
func NewSFEngine(p *workload.Problem, s Scheduler, seed int64) *SFEngine {
	return NewSFEngineBuffered(p, s, seed, 0)
}

// NewSFEngineBuffered builds a store-and-forward engine whose per-edge
// queues hold at most cap packets (cap <= 0 means unbounded). As in
// NewEngine, a packet with an empty preselected path is absorbed
// immediately at step 0.
func NewSFEngineBuffered(p *workload.Problem, s Scheduler, seed int64, cap int) *SFEngine {
	if cap < 0 {
		cap = 0
	}
	e := &SFEngine{
		G:     p.G,
		Rng:   rand.New(rand.NewSource(seed)),
		Cap:   cap,
		sched: s,
		queue: make([][]PacketID, p.G.NumEdges()),
	}
	e.Packets = make([]Packet, p.N())
	for i, path := range p.Set.Paths {
		e.Packets[i].Preselected = path
	}
	e.pendingInject = make([]PacketID, 0, p.N())
	e.readyAt = make([]int, p.N())
	e.edgesByLevelDesc = make([]graph.EdgeID, p.G.NumEdges())
	for i := range e.edgesByLevelDesc {
		e.edgesByLevelDesc[i] = graph.EdgeID(i)
	}
	sort.SliceStable(e.edgesByLevelDesc, func(i, j int) bool {
		li := p.G.Node(p.G.Edge(e.edgesByLevelDesc[i]).From).Level
		lj := p.G.Node(p.G.Edge(e.edgesByLevelDesc[j]).From).Level
		return li > lj
	})
	e.descPos = make([]int32, p.G.NumEdges())
	for pos, eid := range e.edgesByLevelDesc {
		e.descPos[eid] = int32(pos)
	}
	e.Reset(seed)
	return e
}

// Reset rewinds the engine to step 0 with a new seed, reusing every
// allocation — queue backing arrays, path lists and the level-order
// index all survive — mirroring Engine.Reset so Monte-Carlo workers can
// reuse one store-and-forward engine across trials. The scheduler is
// re-initialized and initial delays are re-drawn for the new seed.
func (e *SFEngine) Reset(seed int64) {
	e.seed = seed
	e.Rng.Seed(seed)
	e.M = SFMetrics{}
	e.now = 0
	e.probe = nil
	e.events = nil
	e.lastM = SFMetrics{}
	// Every non-empty queue is registered in activePos or staged in
	// newPos (enqueue's invariant), so clearing through those lists
	// touches only dirty queues.
	for _, pos := range e.activePos {
		eid := e.edgesByLevelDesc[pos]
		e.queue[eid] = e.queue[eid][:0]
	}
	for _, pos := range e.newPos {
		eid := e.edgesByLevelDesc[pos]
		e.queue[eid] = e.queue[eid][:0]
	}
	e.activePos = e.activePos[:0]
	e.newPos = e.newPos[:0]
	e.pendingInject = e.pendingInject[:0]
	for i := range e.Packets {
		p := &e.Packets[i]
		pathBuf := p.PathList
		*p = Packet{
			ID:          PacketID(i),
			Cur:         graph.NoNode,
			Src:         graph.NoNode,
			Dst:         graph.NoNode,
			Preselected: p.Preselected,
			InjectTime:  -1,
			AbsorbTime:  -1,
			ArrivalEdge: graph.NoEdge,
		}
		if pathBuf != nil {
			p.PathList = pathBuf[:0]
		}
		if len(p.Preselected) > 0 {
			p.Src = e.G.PathSource(p.Preselected)
			p.Dst = e.G.PathDest(p.Preselected)
			e.pendingInject = append(e.pendingInject, p.ID)
		} else {
			p.Absorbed = true
			p.InjectTime = 0
			p.AbsorbTime = 0
			e.M.Injected++
			e.M.Absorbed++
		}
	}
	e.sched.Init(e)
	for i := range e.Packets {
		if e.Packets[i].Absorbed {
			continue
		}
		r := e.sched.ReadyAt(&e.Packets[i])
		if r < 0 {
			r = 0
		}
		e.readyAt[i] = r
	}
}

// Seed returns the seed of the current run.
func (e *SFEngine) Seed() int64 { return e.seed }

// Now returns the current step number.
func (e *SFEngine) Now() int { return e.now }

// Done reports whether every packet has been absorbed.
func (e *SFEngine) Done() bool { return e.M.Absorbed == len(e.Packets) }

// Run executes steps until completion or maxSteps; it returns the steps
// executed and whether the run completed.
func (e *SFEngine) Run(maxSteps int) (int, bool) {
	for e.now < maxSteps && !e.Done() {
		e.Step()
	}
	return e.now, e.Done()
}

// hasRoom reports whether queue q can accept one more packet.
func (e *SFEngine) hasRoom(q graph.EdgeID) bool {
	return e.Cap == 0 || len(e.queue[q]) < e.Cap
}

// enqueue appends a packet to an edge queue, staging the edge for the
// active list if its queue was empty.
func (e *SFEngine) enqueue(eid graph.EdgeID, pid PacketID) {
	if len(e.queue[eid]) == 0 {
		e.newPos = append(e.newPos, e.descPos[eid])
	}
	e.queue[eid] = append(e.queue[eid], pid)
}

// mergeActive folds the staged newly-non-empty edge positions into the
// sorted active list. The active list is nearly sorted already (new
// positions arrive in processing order), so an insertion sort is
// effectively linear.
func (e *SFEngine) mergeActive() {
	if len(e.newPos) == 0 {
		return
	}
	e.activePos = append(e.activePos, e.newPos...)
	e.newPos = e.newPos[:0]
	for i := 1; i < len(e.activePos); i++ {
		v := e.activePos[i]
		j := i - 1
		for j >= 0 && e.activePos[j] > v {
			e.activePos[j+1] = e.activePos[j]
			j--
		}
		e.activePos[j+1] = v
	}
}

// Step executes one synchronous store-and-forward step: inject newly
// ready packets into their first edge's queue (if it has room), then
// move one packet across every non-empty edge, draining top levels
// first so that freed buffer slots become available upstream within the
// same step.
func (e *SFEngine) Step() {
	t := e.now

	// Injection: a ready packet joins the queue of its first edge.
	if len(e.pendingInject) > 0 {
		keep := e.pendingInject[:0]
		for _, pid := range e.pendingInject {
			p := &e.Packets[pid]
			if t < e.readyAt[pid] {
				keep = append(keep, pid)
				continue
			}
			first := p.Preselected[0]
			if !e.hasRoom(first) {
				e.M.InjectionBlocked++
				keep = append(keep, pid)
				continue
			}
			p.Active = true
			p.Cur = p.Src
			p.Level = int32(e.G.LevelOf(p.Src))
			p.InjectTime = t
			p.PathList = append(p.PathList[:0], p.Preselected...)
			e.enqueue(first, pid)
			e.M.Injected++
			if e.events != nil {
				e.events.RecordEvent(t, pid, EventInject, int32(p.Src))
			}
		}
		e.pendingInject = keep
	}

	// Moves, top levels first. A packet granted a move commits
	// immediately; because levels are processed in descending order no
	// packet can be granted twice in a step (its new queue sits at a
	// level already processed, and an edge newly occupied this step
	// joins the active list only at the next step's merge).
	e.mergeActive()
	keep := e.activePos[:0]
	for _, pos := range e.activePos {
		eid := e.edgesByLevelDesc[pos]
		q := e.queue[eid]
		if len(q) == 0 {
			continue
		}
		if len(q) > e.M.MaxQueueLen {
			e.M.MaxQueueLen = len(q)
		}
		pick := e.sched.Pick(t, eid, q)
		found := false
		for _, pid := range q {
			if pid == pick {
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("sim: scheduler %s picked packet %d not in queue of edge %d", e.sched.Name(), pick, eid))
		}
		p := &e.Packets[pick]
		// Downstream room check: absorption needs none; otherwise the
		// next edge's queue must accept the packet.
		if len(p.PathList) > 1 && !e.hasRoom(p.PathList[1]) {
			e.M.Blocked++
			e.M.QueueDelay += len(q)
			if e.events != nil {
				e.events.RecordEvent(t, pick, EventStall, 0)
			}
			keep = append(keep, pos)
			continue
		}
		e.M.QueueDelay += len(q) - 1 // everyone else waits this step

		// Remove from queue preserving order, then advance.
		for i, pid := range q {
			if pid == pick {
				e.queue[eid] = append(q[:i], q[i+1:]...)
				break
			}
		}
		n := copy(p.PathList, p.PathList[1:])
		p.PathList = p.PathList[:n]
		p.Cur = e.G.Edge(eid).To
		p.Level++
		p.ForwardMoves++
		e.M.Moves++
		if len(p.PathList) == 0 {
			if p.Cur != p.Dst {
				panic(fmt.Sprintf("sim: packet %d exhausted path at node %d != dst %d", p.ID, p.Cur, p.Dst))
			}
			p.Active = false
			p.Absorbed = true
			p.AbsorbTime = t + 1
			e.M.Absorbed++
			if e.events != nil {
				e.events.RecordEvent(t, pick, EventAbsorb, int32(p.Cur))
			}
		} else {
			e.enqueue(p.PathList[0], pick)
		}
		if len(e.queue[eid]) > 0 {
			keep = append(keep, pos)
		}
	}
	e.activePos = keep

	e.now++
	e.M.Steps = e.now
	if e.probe != nil {
		e.emitSFSnapshot(t)
	}
}
