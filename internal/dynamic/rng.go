package dynamic

import (
	"fmt"
	"math/bits"
)

// sm64 is a SplitMix64 rand.Source64. The open-system engine draws all
// of its randomness through it (wrapped in math/rand.Rand) instead of
// the runtime's default source because its entire state is one uint64 —
// the property the snapshot/restore contract rests on: persist an
// engine mid-run, restore it in a fresh process, and the RNG stream
// continues exactly where it stopped. The same generator backs
// stats.BootstrapQuantileCI for the same reason (byte-identical
// campaign summaries).
//
// Each draw adds sm64Gamma to the state and mixes the sum into the
// output, so the state after k draws is the state plus k·sm64Gamma
// whatever was drawn, and skip moves the stream past k draws in O(1).
type sm64 struct{ state uint64 }

// sm64Gamma is SplitMix64's state increment per draw.
const sm64Gamma = 0x9e3779b97f4a7c15

// newSM64 seeds the source. The seed passes through one mixing round so
// small consecutive seeds (1, 2, 3…) do not yield correlated streams.
func newSM64(seed int64) *sm64 {
	s := &sm64{state: uint64(seed)}
	s.Uint64()
	return s
}

// Uint64 implements rand.Source64.
func (s *sm64) Uint64() uint64 {
	s.state += sm64Gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *sm64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *sm64) Seed(seed int64) { *s = *newSM64(seed) }

// skip advances the stream past k draws, as k calls of Uint64 would.
func (s *sm64) skip(k int) { s.state += uint64(k) * sm64Gamma }

// bound is a precomputed uniform draw in [0, n) for 1 ≤ n < 2^31:
// math/rand's Int31n(n) (and so Intn(n)) without its interface call or
// its divides. lim is Int31n's rejection threshold, 2^31-1 - 2^31 mod n,
// which is 2^31-1 for a power of two, so every value is accepted where
// Int31n masks. m is the reciprocal ⌈2^64/n⌉ (0 for n = 1), with which
// the high word of (m·v mod 2^64)·n is v mod n for every 32-bit v
// (Lemire, Kaser and Kurz, "Faster remainder by direct computation"),
// and equals v & (n-1) for a power of two.
type bound struct {
	m   uint64
	lim uint32
	n   uint32
}

func newBound(n int) bound {
	if n < 1 || n > 1<<31-1 {
		panic(fmt.Sprintf("dynamic: draw bound %d outside [1, 2^31)", n))
	}
	return bound{
		m:   ^uint64(0)/uint64(n) + 1,
		lim: 1<<31 - 1 - 1<<31%uint32(n),
		n:   uint32(n),
	}
}

// below draws from b as rand.New(s).Intn(b.n) would: the same value,
// from the same number of stream values (Int31 is the top 31 bits of
// one Uint64).
func (s *sm64) below(b *bound) int {
	v := uint32(s.Uint64() >> 33)
	for v > b.lim {
		v = uint32(s.Uint64() >> 33)
	}
	hi, _ := bits.Mul64(b.m*uint64(v), uint64(b.n))
	return int(hi)
}
