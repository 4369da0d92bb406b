package sim

import (
	"hotpotato/internal/graph"
)

// FaultModel reports whether an edge is down at a step. A downed edge
// carries no traffic in either direction: requests for it lose and the
// packet is deflected; deflection assignment skips it. Fault models
// must be pure, deterministic functions of (edge, step) — a run is
// reproducible from its seed only if every query for an (edge, step)
// gets the same answer, however often and in whatever order the
// engines, probes and availability gauges ask — and must leave every
// node enough healthy slots for its occupants; the engine's capacity
// panic is the overload signal.
type FaultModel func(e graph.EdgeID, t int) bool

// NoFaults is the all-healthy model.
func NoFaults(graph.EdgeID, int) bool { return false }

// HashFaults derives a memoryless fault process from a hash: each edge
// is down for whole windows of `duration` steps, independently per
// (edge, window), with probability rate. Deterministic in (seed, edge,
// step).
func HashFaults(seed int64, rate float64, duration int) FaultModel {
	if duration < 1 {
		duration = 1
	}
	threshold := uint64(rate * (1 << 32))
	return func(e graph.EdgeID, t int) bool {
		w := uint64(t/duration) + 1
		x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(e)*0xbf58476d1ce4e5b9 ^ w*0x94d049bb133111eb
		// SplitMix64 finalizer.
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return uint32(x) < uint32(threshold)
	}
}

// PeriodicFault takes one specific edge down during [from, to).
func PeriodicFault(edge graph.EdgeID, from, to int) FaultModel {
	return func(e graph.EdgeID, t int) bool {
		return e == edge && t >= from && t < to
	}
}

// ComposeFaults ORs several fault models.
func ComposeFaults(models ...FaultModel) FaultModel {
	return func(e graph.EdgeID, t int) bool {
		for _, m := range models {
			if m != nil && m(e, t) {
				return true
			}
		}
		return false
	}
}
