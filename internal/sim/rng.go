package sim

import "math"

// Arbitration randomness is counter-based: every draw is a pure
// function of (engine seed, step, slot, packet), with no sequential
// generator state at all. The engine resolves an equal-priority slot
// conflict by giving each contender the key of (seed, t, slot, pid)
// and crowning the largest key (ties, ~2^-64, break toward the larger
// packet ID). Because max is commutative, the winner does not depend on
// the order in which contenders are enumerated: requests may be
// gathered packet-by-packet or node-by-node and the trace is
// byte-identical, which keeps the golden traces fixed across changes to
// the step's loops. Each of k contenders holds the largest of k iid
// uniform keys with probability exactly 1/k, so the uniformity of
// reservoir selection is preserved (and chi-square tested in
// arbitration_test.go).
//
// A slot (edge, direction) is leavable from exactly one node, so keying
// on the slot is the same as keying on (node, slot).
//
// The mixer is Steele, Lea & Flood's SplitMix64 finalizer (the seeder
// of xoshiro); it passes BigCrush as a counter-mode generator.

// mix64 is the SplitMix64 finalizer: a bijective avalanche mixer whose
// output over a counter sequence is a high-quality uniform stream.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// StreamSeed derives an independent stream seed from a run seed and a
// caller-chosen salt. Routers that need order-independent randomness
// (e.g. the frame router's excitation coin) derive their own stream
// here so their draws never interleave with engine arbitration.
func StreamSeed(seed int64, salt uint64) uint64 {
	return mix64(mix64(uint64(seed)+0x9E3779B97F4A7C15) ^ salt)
}

// arbStream derives the engine's arbitration stream seed.
func arbStream(seed int64) uint64 {
	return StreamSeed(seed, 0xA5B35705) // fixed engine-arbitration salt
}

// The arbitration key of contender pid for slot s at step t is
// arbDraw(arbSlot(seed, t, s), pid): 64 iid uniform bits per (seed,
// step, slot, packet) tuple. Step and slot pack exactly into the first
// mixing word, the packet ID into the second, so distinct tuples never
// collide before mixing; a contested slot mixes its first word once for
// all of its contenders.

// arbSlot mixes the (step, slot) word of slot s's arbitration keys.
func arbSlot(seed uint64, t int, s int32) uint64 {
	return mix64(seed ^ (uint64(uint32(t)) | uint64(uint32(s))<<32))
}

// arbDraw finishes contender pid's key from its slot's word.
func arbDraw(h uint64, pid PacketID) uint64 {
	return mix64(h ^ 0x9E3779B97F4A7C15 ^ uint64(uint32(pid)))
}

// CoinFloat returns a uniform float64 in [0, 1) determined by (stream,
// step, packet) — the counter-based replacement for a sequential
// rng.Float64() inside Router.Request, where draw order must not
// depend on request iteration order. The 53 high bits of the mixed
// counter form the mantissa, the standard uniform-double construction.
func CoinFloat(stream uint64, t int, pid PacketID) float64 {
	return float64(CoinBits(stream, t, pid)) / (1 << 53)
}

// CoinBits returns CoinFloat's 53 mantissa bits as an integer:
// CoinFloat(stream, t, pid) < q exactly when CoinBits(stream, t, pid) <
// CoinThreshold(q), a compare without an int-to-float conversion.
func CoinBits(stream uint64, t int, pid PacketID) uint64 {
	return mix64(stream^(uint64(uint32(t))|uint64(uint32(pid))<<32)) >> 11
}

// CoinThreshold returns ⌈q·2^53⌉ for q in [0, 1]: the least integer at
// or above q·2^53, which float64 holds exactly, so an integer below it is
// exactly an integer whose CoinFloat is below q.
func CoinThreshold(q float64) uint64 {
	return uint64(math.Ceil(q * (1 << 53)))
}
