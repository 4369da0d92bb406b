package dynamic

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
	"hotpotato/internal/sim"
)

// Snapshot freezes the engine between two steps into the versioned
// persist wire form. The engine must not have been finalized; it
// remains usable afterwards. Everything the next Step reads is
// captured — packets, queues, the previous-step forward occupancy, the
// open window accumulators, the latency reservoir and the RNG states —
// so a Restore in a fresh process continues the exact same trajectory.
// The wire form is independent of the in-memory layout: the SoA
// columns serialize to the same per-packet records the
// array-of-pointers engine emitted.
func (e *Engine) Snapshot() (*persist.EngineState, error) {
	if e.finalized {
		return nil, fmt.Errorf("dynamic: Snapshot after Finalize")
	}
	st := &persist.EngineState{
		Version: persist.EngineStateVersion,
		Kind:    persist.EngineStateKind,

		Lambda:      e.cfg.Lambda,
		Steps:       e.cfg.Steps,
		Warmup:      e.cfg.Warmup,
		Seed:        e.cfg.Seed,
		MaxInFlight: e.cfg.MaxInFlight,
		Window:      e.cfg.Window,
		Retry: persist.RetryPolicyState{
			MaxAttempts: e.cfg.Retry.MaxAttempts,
			BaseDelay:   e.cfg.Retry.BaseDelay,
			MaxDelay:    e.cfg.Retry.MaxDelay,
		},

		Step:   e.step,
		RNG:    e.src.state,
		NextID: e.nextID,

		Offered:      e.res.Offered,
		Admitted:     e.res.Admitted,
		Delivered:    e.res.Delivered,
		Retried:      e.res.Retried,
		Dropped:      e.res.Dropped,
		FaultBlocked: e.res.FaultBlocked,
		FaultStalls:  e.res.FaultStalls,
		Deflections:  e.res.Deflections,
		PeakInFlight: e.res.PeakInFlight,
		Saturated:    e.res.Saturated,

		InFlightSum:     e.inFlightSum,
		InFlightSamples: e.inFlightSamples,
		LatCount:        e.lat.count,
		LatSum:          e.lat.sum,
		LatSamples:      append([]float64(nil), e.lat.samples...),
		LatRNG:          e.lat.rng.state,

		WDelivered:   e.wDelivered,
		WSpan:        e.wSpan,
		WStart:       e.wStart,
		WLatSum:      e.wLatSum,
		WFlySum:      e.wFlySum,
		WAvailSum:    e.wAvailSum,
		WPrevBlocked: e.wPrevBlocked,
		WPrevStalls:  e.wPrevStalls,
		WPrevDropped: e.wPrevDropped,

		Digest: e.digest,
	}
	for _, w := range e.res.Windows {
		st.Windows = append(st.Windows, persist.WindowState{
			Start: w.Start, Delivered: w.Delivered,
			MeanLatency: w.MeanLatency, MeanInFlight: w.MeanInFlight,
			FaultBlocked: w.FaultBlocked, FaultStalls: w.FaultStalls,
			Dropped: w.Dropped, Availability: w.Availability,
		})
	}
	// Packets in injection order (the order e.live maintains and every
	// commit sweep follows).
	for _, s := range e.live {
		st.Packets = append(st.Packets, persist.PacketState{
			ID: e.pID[s], Tenant: e.tenantName(e.pTenant[s]),
			Cur: e.pCur[s], Dst: e.pDst[s],
			Path:        slotsToWire(e.path[e.pHead[s] : e.pHead[s]+e.pLen[s]]),
			ArrivalEdge: e.pArrEdge[s],
			ArrivalDir:  int8(e.pArrDir[s]),
			Inject:      e.pInject[s],
		})
	}
	for _, en := range e.retryQ {
		path := en.path
		if path == nil {
			// An endpoint-only entry: its path is the one the walk gives.
			var err error
			if path, err = e.reach.AppendPath(en.src, en.dst, nil); err != nil {
				return nil, fmt.Errorf("dynamic: snapshot: retry entry: %w", err)
			}
		}
		st.RetryQ = append(st.RetryQ, persist.RetryState{
			Tenant: e.tenantName(en.tenant), Src: int32(en.src), Dst: int32(en.dst),
			Path: edgesToWire(path), Attempts: en.attempts, Next: en.next,
		})
	}
	for _, en := range e.pending {
		st.Pending = append(st.Pending, persist.PendingState{
			Tenant: e.tenantName(en.tenant), Random: en.random,
			Src: int32(en.src), Dst: int32(en.dst), Path: edgesToWire(en.path),
		})
	}
	// The dirty list enumerates exactly the set bits of prevFwd; the
	// wire form is ascending edge id, as the dense-scan engine emitted.
	if len(e.prevFwdDirty) > 0 {
		fwd := append([]int32(nil), e.prevFwdDirty...)
		slices.Sort(fwd)
		st.PrevForward = fwd
	}
	if len(e.tenants) > 0 {
		st.Tenants = make(map[string]persist.TenantTotals, len(e.tenants))
		for name, tt := range e.tenants {
			st.Tenants[name] = *tt
		}
	}
	if err := st.Validate(); err != nil {
		return nil, fmt.Errorf("dynamic: snapshot failed self-validation: %w", err)
	}
	return st, nil
}

// Hooks carries the function-valued configuration a snapshot cannot
// serialize; Restore re-binds them. The fault model MUST be the same
// pure function the snapshotting engine ran with (same spec, same
// seed), or the restored trajectory diverges — the service stores the
// fault spec string beside the engine state for exactly this reason.
type Hooks struct {
	Faults   sim.FaultModel
	OnWindow func(w WindowStats, r *Result)
}

// Restore thaws an engine state into graph g. The state is re-validated
// both structurally (persist.EngineState.Validate) and against the
// graph: node and edge references must be in range, every packet's
// remaining path must be a chain of incident edges from its current
// node to its destination, every queued path a chain of forward edges
// from its source to its destination, and every pending pair without a
// path one whose source forward-reaches its destination.
func Restore(g *graph.Leveled, st *persist.EngineState, hooks Hooks) (*Engine, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	cfg := Config{
		Lambda:      st.Lambda,
		Steps:       st.Steps,
		Warmup:      st.Warmup,
		Seed:        st.Seed,
		MaxInFlight: st.MaxInFlight,
		Window:      st.Window,
		Retry: RetryPolicy{
			MaxAttempts: st.Retry.MaxAttempts,
			BaseDelay:   st.Retry.BaseDelay,
			MaxDelay:    st.Retry.MaxDelay,
		},
		Faults:   hooks.Faults,
		OnWindow: hooks.OnWindow,
	}
	e, err := NewEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	e.src.state = st.RNG
	e.rng = rand.New(e.src)
	e.step = st.Step
	e.nextID = st.NextID

	e.res.Offered = st.Offered
	e.res.Admitted = st.Admitted
	e.res.Delivered = st.Delivered
	e.res.Retried = st.Retried
	e.res.Dropped = st.Dropped
	e.res.FaultBlocked = st.FaultBlocked
	e.res.FaultStalls = st.FaultStalls
	e.res.Deflections = st.Deflections
	e.res.PeakInFlight = st.PeakInFlight
	e.res.Saturated = st.Saturated
	e.res.ExecutedSteps = st.Step

	e.inFlightSum = st.InFlightSum
	e.inFlightSamples = st.InFlightSamples
	e.lat = restoreLatReservoir(st.LatCount, st.LatSum, st.LatSamples, st.LatRNG)

	// A horizon-free state written before the window bound, or by
	// hand, restores with its most recent windows only.
	for _, w := range recentWindows(st.Windows, st.Steps) {
		e.res.Windows = append(e.res.Windows, WindowStats{
			Start: w.Start, Delivered: w.Delivered,
			MeanLatency: w.MeanLatency, MeanInFlight: w.MeanInFlight,
			FaultBlocked: w.FaultBlocked, FaultStalls: w.FaultStalls,
			Dropped: w.Dropped, Availability: w.Availability,
		})
	}
	e.wDelivered, e.wSpan, e.wStart = st.WDelivered, st.WSpan, st.WStart
	e.wLatSum, e.wFlySum, e.wAvailSum = st.WLatSum, st.WFlySum, st.WAvailSum
	e.wPrevBlocked, e.wPrevStalls, e.wPrevDropped = st.WPrevBlocked, st.WPrevStalls, st.WPrevDropped
	e.digest = st.Digest

	for i := range st.Packets {
		ps := &st.Packets[i]
		if int(ps.Cur) >= g.NumNodes() || int(ps.Dst) >= g.NumNodes() || ps.Cur < 0 || ps.Dst < 0 {
			return nil, fmt.Errorf("dynamic: restore: packet %d at/for unknown node", ps.ID)
		}
		slots, err := walkable(g, ps.Cur, ps.Dst, ps.Path)
		if err != nil {
			return nil, fmt.Errorf("dynamic: restore: packet %d: %w", ps.ID, err)
		}
		if ps.ArrivalEdge != -1 && (int(ps.ArrivalEdge) >= g.NumEdges() || ps.ArrivalEdge < 0) {
			return nil, fmt.Errorf("dynamic: restore: packet %d arrival edge out of range", ps.ID)
		}
		// A node holds at most one packet per incident edge; parkAt
		// panics on more, which Validate cannot see without the graph.
		if e.atN[ps.Cur] >= e.atOff[ps.Cur+1]-e.atOff[ps.Cur] {
			return nil, fmt.Errorf("dynamic: restore: packet %d parks at full node %d", ps.ID, ps.Cur)
		}
		s := e.allocSlot()
		e.pID[s] = ps.ID
		e.pTenant[s] = e.internTenant(ps.Tenant)
		e.pCur[s] = ps.Cur
		e.pDst[s] = ps.Dst
		e.pArrEdge[s] = ps.ArrivalEdge
		e.pArrDir[s] = uint8(ps.ArrivalDir)
		e.pInject[s] = ps.Inject
		copy(e.pathWindow(s, len(slots)), slots)
		e.live = append(e.live, s)
		e.parkAt(graph.NodeID(ps.Cur), s)
	}
	for _, ed := range st.PrevForward {
		if int(ed) >= g.NumEdges() || ed < 0 {
			return nil, fmt.Errorf("dynamic: restore: prev_forward edge %d out of range", ed)
		}
		// The engine only tests whether a forward move was committed on
		// the edge (the packet that moved may since have been
		// delivered); the bit is the predicate.
		e.prevFwd[ed>>6] |= 1 << (uint(ed) & 63)
		e.prevFwdDirty = append(e.prevFwdDirty, ed)
	}
	for i := range st.RetryQ {
		rs := &st.RetryQ[i]
		if int(rs.Src) >= g.NumNodes() || rs.Src < 0 || int(rs.Dst) >= g.NumNodes() || rs.Dst < 0 {
			return nil, fmt.Errorf("dynamic: restore: retry entry %d references unknown node", i)
		}
		path, err := forwardPath(g, rs.Src, rs.Dst, rs.Path)
		if err != nil {
			return nil, fmt.Errorf("dynamic: restore: retry entry %d: %w", i, err)
		}
		e.queueRetry(retryEntry{
			tenant: e.internTenant(rs.Tenant), src: graph.NodeID(rs.Src), dst: graph.NodeID(rs.Dst),
			path: path, attempts: rs.Attempts, next: rs.Next,
		})
	}
	for i := range st.Pending {
		ps := &st.Pending[i]
		en := pendingEntry{tenant: e.internTenant(ps.Tenant), random: ps.Random, src: graph.NodeID(ps.Src), dst: graph.NodeID(ps.Dst)}
		if !ps.Random {
			if int(ps.Src) >= g.NumNodes() || ps.Src < 0 || int(ps.Dst) >= g.NumNodes() || ps.Dst < 0 {
				return nil, fmt.Errorf("dynamic: restore: pending entry %d references unknown node", i)
			}
			if len(ps.Path) > 0 {
				path, err := forwardPath(g, ps.Src, ps.Dst, ps.Path)
				if err != nil {
					return nil, fmt.Errorf("dynamic: restore: pending entry %d: %w", i, err)
				}
				en.path = path
			} else if !e.reach.Contains(en.src, en.dst) {
				// Step draws or walks a path between the endpoints, so
				// they must be a pair Submit accepts.
				return nil, fmt.Errorf("dynamic: restore: pending entry %d: node %d cannot reach %d forward", i, ps.Src, ps.Dst)
			}
		}
		e.pending = append(e.pending, en)
	}
	for name, tt := range st.Tenants {
		*e.tenantTT[e.internTenant(name)] = tt
	}
	return e, nil
}

// TenantNames returns the tenant names in sorted order (stable
// iteration for exports).
func (e *Engine) TenantNames() []string {
	names := make([]string, 0, len(e.tenants))
	for n := range e.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func edgesToWire(path []graph.EdgeID) []int32 {
	if path == nil {
		return nil
	}
	out := make([]int32, len(path))
	for i, ed := range path {
		out[i] = int32(ed)
	}
	return out
}

// slotsToWire writes a live path's transmission slots as the edges
// they cross; Restore recovers each direction by walking them.
func slotsToWire(slots []int32) []int32 {
	out := make([]int32, len(slots))
	for i, si := range slots {
		out[i] = si >> 1
	}
	return out
}

// walkable decodes a wire path and checks it leads from src to dst:
// each edge incident to the node the previous one reaches. It returns
// the path as the transmission slots (edge<<1 | direction) that walk
// takes. Step trusts this of every path it injects or advances, so a
// restore that skipped the check would panic a later step instead of
// failing here.
func walkable(g *graph.Leveled, src, dst int32, wire []int32) ([]int32, error) {
	slots := make([]int32, len(wire))
	pos := graph.NodeID(src)
	for hop, w := range wire {
		if int(w) >= g.NumEdges() || w < 0 {
			return nil, fmt.Errorf("edge %d out of range", w)
		}
		ed := graph.EdgeID(w)
		if g.Edge(ed).From != pos && g.Edge(ed).To != pos {
			return nil, fmt.Errorf("path hop %d not incident to node %d", hop, pos)
		}
		d := g.DirectionFrom(ed, pos)
		slots[hop] = w<<1 | int32(d)
		pos = g.EndpointAt(ed, d)
	}
	if pos != graph.NodeID(dst) {
		return nil, fmt.Errorf("path ends at %d, not its destination %d", pos, dst)
	}
	return slots, nil
}

// forwardPath decodes the wire path of a queued entry: walkable, with
// every hop a forward move, since Step installs a queued path as
// forward moves (SubmitPath and the path draws only queue such paths).
func forwardPath(g *graph.Leveled, src, dst int32, wire []int32) ([]graph.EdgeID, error) {
	slots, err := walkable(g, src, dst, wire)
	if err != nil {
		return nil, err
	}
	path := make([]graph.EdgeID, len(slots))
	for hop, si := range slots {
		if graph.Direction(si&1) != graph.Forward {
			return nil, fmt.Errorf("path hop %d is not a forward move", hop)
		}
		path[hop] = graph.EdgeID(si >> 1)
	}
	return path, nil
}
