package sim

// Test-only exports: the statistical tests exercise the unexported
// counter-based generators directly.
var (
	ArbStreamForTest = arbStream
)

// ArbKeyForTest is the arbitration key of contender pid for slot s at
// step t, as resolveNode composes it.
func ArbKeyForTest(seed uint64, t int, s int32, pid PacketID) uint64 {
	return arbDraw(arbSlot(seed, t, s), pid)
}

// PathUnitForTest is the size of a packet's home path segment: the
// longest preselected path plus the prepend headroom.
func PathUnitForTest(e *Engine) int { return e.pathUnit }
