// Package sim implements the synchronous network machinery the paper
// assumes (Section 1.1): time is discrete; at each step a node receives
// packets, makes a routing decision, and forwards them; at most one
// packet traverses each edge in each direction per step.
//
// Two engines are provided. Engine is the hot-potato (bufferless)
// engine: every packet at a node must leave at every step, losers of
// link conflicts are deflected, preferentially backward and safe in the
// paper's sense (Section 2.3). SFEngine is a store-and-forward engine
// with per-edge output queues, used by the buffered baselines.
package sim

import (
	"fmt"

	"hotpotato/internal/graph"
)

// PacketID indexes a packet within a simulation. IDs are dense:
// 0..NumPackets-1, matching the workload's path indices.
type PacketID int32

// NoPacket is the sentinel for "no packet".
const NoPacket PacketID = -1

// Packet is the dynamic record of one packet. The routing algorithm
// reads it; only the engine mutates it.
//
// Field order is deliberate: the members the per-step hot path touches
// — identity, current node, path-list header, arrival traversal, state
// bits and the router's tag — are grouped at the front so they share
// the packet's first cache line; the per-run constants and counters
// follow. Reordering here is purely a layout concern (no observable
// behavior depends on it), but keep hot fields leading when adding new
// ones.
type Packet struct {
	ID PacketID
	// Cur is the node the packet occupies (meaningful while Active).
	Cur graph.NodeID
	Dst graph.NodeID
	// ArrivalEdge/ArrivalDir record the traversal that brought the
	// packet to Cur (NoEdge right after injection). The reverse of this
	// traversal is the preferred — and always safe — deflection slot.
	ArrivalEdge graph.EdgeID

	// PathList is the current path in the paper's sense (Section 2.2):
	// the edges remaining between Cur and Dst. A forward traversal of
	// the head pops it; a deflection prepends the deflection edge. The
	// head edge is always incident to Cur.
	PathList []graph.EdgeID

	ArrivalDir graph.Direction
	// HeadDir is the direction in which the path-list head leaves Cur,
	// maintained by the engine (valid while PathList is non-empty).
	// Routers requesting the head traversal should use it instead of a
	// graph lookup: it spares the hot path the scattered edge-endpoint
	// load that an explicit DirectionFrom would cost.
	HeadDir graph.Direction
	// Active is true between injection and absorption.
	Active bool
	// Absorbed is true once the packet has reached Dst.
	Absorbed bool

	Src graph.NodeID

	// Tag is algorithm-owned scratch (the frame router stores the
	// frontier-set index here).
	Tag int32
	// Level is the level of Cur, maintained by the engine (valid while
	// Active): set at injection and moved by one per traversal, like
	// HeadDir it spares routers and censuses a graph lookup per packet.
	// It fills the 4-byte hole after Tag, so Packet stays 120 bytes.
	Level int32

	// InjectTime and AbsorbTime are the steps of injection/absorption,
	// -1 until they happen.
	InjectTime int
	AbsorbTime int

	// Preselected is the packet's immutable preselected path.
	Preselected graph.Path

	// Counters.
	Deflections   int
	ForwardMoves  int
	BackwardMoves int
}

// HeadDirection returns the direction in which the head of the path
// list leaves Cur. It panics if the path list is empty.
func (p *Packet) HeadDirection(g *graph.Leveled) graph.Direction {
	return g.DirectionFrom(p.PathList[0], p.Cur)
}

// PathValid reports whether the current path list is a valid forward
// path beginning at Cur — the paper's validity invariant (Lemma 2.1).
func (p *Packet) PathValid(g *graph.Leveled) bool {
	if len(p.PathList) == 0 {
		return p.Cur == p.Dst
	}
	if g.Edge(p.PathList[0]).From != p.Cur {
		return false
	}
	if err := g.ValidatePath(p.PathList); err != nil {
		return false
	}
	return g.PathDest(p.PathList) == p.Dst
}

// Latency returns AbsorbTime - InjectTime, or -1 if not yet absorbed.
func (p *Packet) Latency() int {
	if !p.Absorbed {
		return -1
	}
	return p.AbsorbTime - p.InjectTime
}

// Request is a packet's desired traversal for the current step.
type Request struct {
	// Edge must be incident to the packet's current node.
	Edge graph.EdgeID
	// Dir must be the direction leaving the current node along Edge.
	Dir graph.Direction
	// Priority orders conflicting requests; higher wins. The frame
	// router maps states to priorities (excited > normal > wait).
	Priority int64
}

// DeflectKind classifies how a deflection slot was chosen, mirroring
// the paper's taxonomy: reversing one's own arrival and recycling
// another packet's just-traversed edge are both safe (Section 2.3);
// the remaining kinds never occur under the paper's preconditions and
// are counted as violations when they do.
type DeflectKind int8

const (
	// DeflectArrivalReverse: the loser retraces its own arrival
	// traversal (safe; backward whenever the arrival was forward).
	DeflectArrivalReverse DeflectKind = iota
	// DeflectSafeBackward: the loser takes a down-edge that another
	// packet traversed forward at the previous step (safe deflection;
	// the edge is recycled between path lists).
	DeflectSafeBackward
	// DeflectUnsafeBackward: a backward slot with no recycled edge.
	DeflectUnsafeBackward
	// DeflectForward: a forward slot; the packet is pushed up a level
	// off its path.
	DeflectForward
)

// String implements fmt.Stringer.
func (k DeflectKind) String() string {
	switch k {
	case DeflectArrivalReverse:
		return "arrival-reverse"
	case DeflectSafeBackward:
		return "safe-backward"
	case DeflectUnsafeBackward:
		return "unsafe-backward"
	case DeflectForward:
		return "forward"
	}
	return fmt.Sprintf("DeflectKind(%d)", int8(k))
}

// Safe reports whether the deflection kind preserves edge congestion in
// the paper's sense.
func (k DeflectKind) Safe() bool {
	return k == DeflectArrivalReverse || k == DeflectSafeBackward
}

// Backward reports whether the deflection moves the packet to a lower
// level. DeflectArrivalReverse is backward whenever the arrival was a
// forward move, which is the only case that arises under valid paths.
func (k DeflectKind) Backward() bool {
	return k != DeflectForward
}
