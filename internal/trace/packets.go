package trace

import (
	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
)

// PacketTracer records per-packet trajectories: the level of each
// tracked packet at every sampled step. For
// all packets pass nil ids; for a subset pass their IDs (full traces of
// large runs are memory-hungry).
type PacketTracer struct {
	Every int

	g       *graph.Leveled
	track   map[sim.PacketID]bool
	byStep  []packetSample
	tracked []sim.PacketID
}

type packetSample struct {
	step   int
	levels map[sim.PacketID]int8 // -1 = not active
}

// NewPacketTracer traces the given packets (nil = all) every `every`
// steps.
func NewPacketTracer(every int, ids []sim.PacketID) *PacketTracer {
	if every < 1 {
		every = 1
	}
	t := &PacketTracer{Every: every}
	if ids != nil {
		t.track = make(map[sim.PacketID]bool, len(ids))
		for _, id := range ids {
			t.track[id] = true
		}
		t.tracked = append([]sim.PacketID(nil), ids...)
	}
	return t
}

// Attach registers the tracer on an engine.
func (t *PacketTracer) Attach(e *sim.Engine) {
	t.g = e.G
	if t.track == nil {
		t.tracked = make([]sim.PacketID, len(e.Packets))
		for i := range e.Packets {
			t.tracked[i] = sim.PacketID(i)
		}
	}
	e.AddObserver(t.observe)
}

func (t *PacketTracer) observe(step int, e *sim.Engine) {
	if step%t.Every != 0 {
		return
	}
	s := packetSample{step: step, levels: make(map[sim.PacketID]int8, len(t.tracked))}
	for _, id := range t.tracked {
		p := &e.Packets[id]
		if p.Active {
			s.levels[id] = int8(e.G.Node(p.Cur).Level)
		} else {
			s.levels[id] = -1
		}
	}
	t.byStep = append(t.byStep, s)
}

// Series exports the recorded trajectories as one level-row per
// tracked packet (-1 = not active) plus a sample-index-to-step mapper,
// the input shape of svg.RenderTimeSpace.
func (t *PacketTracer) Series() ([][]int8, func(int) int) {
	out := make([][]int8, len(t.tracked))
	for pi, id := range t.tracked {
		row := make([]int8, len(t.byStep))
		for i, s := range t.byStep {
			row[i] = s.levels[id]
		}
		out[pi] = row
	}
	steps := make([]int, len(t.byStep))
	for i, s := range t.byStep {
		steps[i] = s.step
	}
	return out, func(i int) int { return steps[i] }
}

// EdgeLoadRecorder counts traversals per edge (both directions) over a
// run — the raw data of a utilization heat map.
type EdgeLoadRecorder struct {
	// Forward and Backward hold per-edge traversal counts.
	Forward  []int
	Backward []int

	lastStepSeen int
}

// NewEdgeLoadRecorder builds a recorder; Attach wires it to an engine.
func NewEdgeLoadRecorder() *EdgeLoadRecorder {
	return &EdgeLoadRecorder{lastStepSeen: -1}
}

// Attach registers the recorder on an engine.
func (r *EdgeLoadRecorder) Attach(e *sim.Engine) {
	r.Forward = make([]int, e.G.NumEdges())
	r.Backward = make([]int, e.G.NumEdges())
	e.AddObserver(func(t int, en *sim.Engine) {
		// Each active or just-absorbed packet moved exactly once this
		// step; its arrival edge/direction is the traversal. Absorbed
		// packets' final hops are counted via their records too.
		for i := range en.Packets {
			p := &en.Packets[i]
			// Every packet active after this step moved during it (the
			// hot-potato invariant), including ones injected this step;
			// packets absorbed this step made their final hop too.
			moved := p.Active || (p.Absorbed && p.AbsorbTime == t+1)
			if !moved || p.ArrivalEdge == graph.NoEdge {
				continue
			}
			if p.ArrivalDir == graph.Forward {
				r.Forward[p.ArrivalEdge]++
			} else {
				r.Backward[p.ArrivalEdge]++
			}
		}
		r.lastStepSeen = t
	})
}

// Total returns combined per-edge loads.
func (r *EdgeLoadRecorder) Total() []int {
	out := make([]int, len(r.Forward))
	for i := range out {
		out[i] = r.Forward[i] + r.Backward[i]
	}
	return out
}
