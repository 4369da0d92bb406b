package dynamic

import (
	"math/rand"
	"testing"
)

// refFold is FNV-1a over the eight bytes of x, least significant first,
// one byte at a time: the definition foldDigest must agree with.
func refFold(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x >> (8 * i) & 0xff
		h *= fnvPrime64
	}
	return h
}

// TestFoldDigest checks foldDigest against refFold on 0, every power of
// 256 and its predecessor, the all-ones word and random words, from
// the FNV offset and from random running digests.
func TestFoldDigest(t *testing.T) {
	words := []uint64{0, ^uint64(0)}
	for k := 1; k < 8; k++ {
		p := uint64(1) << (8 * k)
		words = append(words, p, p-1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		// Random words of every byte length.
		words = append(words, rng.Uint64()>>(8*uint(i%8)))
	}
	hs := []uint64{fnvOffset64, 0}
	for i := 0; i < 8; i++ {
		hs = append(hs, rng.Uint64())
	}
	for _, h := range hs {
		for _, x := range words {
			if got, want := foldDigest(h, x), refFold(h, x); got != want {
				t.Fatalf("foldDigest(%#x, %#x) = %#x, byte-at-a-time FNV-1a %#x", h, x, got, want)
			}
		}
	}
}

// TestSM64Skip checks that skipping n draws leaves the stream where n
// calls of Uint64 do.
func TestSM64Skip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1 << 20} {
		a, b := newSM64(17), newSM64(17)
		for i := 0; i < n; i++ {
			a.Uint64()
		}
		b.skip(n)
		if a.state != b.state {
			t.Fatalf("skip(%d): state %#x, %d draws give %#x", n, b.state, n, a.state)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("skip(%d): next draw %#x, want %#x", n, y, x)
		}
	}
}

// TestBoundedDrawMatchesMathRand checks the precomputed draw against
// math/rand's Intn over the same source: for each bound and 10k seeds,
// the same value and the same stream state after it. 2^30+1 rejects
// almost half of all values, so its draws exercise the retry loop. A
// value at the rejection threshold turns up about once in 2^31 draws,
// so the streams are also started at states whose first Int31 is
// chosen: around 0, n and the threshold, and at 2^31-1.
func TestBoundedDrawMatchesMathRand(t *testing.T) {
	check := func(n int, b *bound, state uint64) {
		t.Helper()
		ref, got := &sm64{state}, &sm64{state}
		want := rand.New(ref).Intn(n)
		if v := got.below(b); v != want || got.state != ref.state {
			t.Fatalf("n=%d from state %#x: drew %d leaving state %#x, Intn %d leaving %#x", n, state, v, got.state, want, ref.state)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 254, 896, 1<<30 + 1, 1<<31 - 1} {
		b := newBound(n)
		for seed := int64(0); seed < 10000; seed++ {
			check(n, &b, newSM64(seed).state)
		}
		lim := int64(b.lim)
		for _, v := range []int64{0, 1, int64(n) - 1, int64(n), lim - 1, lim, lim + 1, 1<<31 - 1} {
			if v < 0 || v >= 1<<31 {
				continue
			}
			out := uint64(v)<<33 | 0x1234567
			if s := (sm64{stateBefore(out)}); s.Uint64() != out {
				t.Fatalf("stateBefore(%#x) leads to %#x", out, s.state)
			}
			check(n, &b, stateBefore(out))
		}
	}
}

// stateBefore returns the sm64 state whose next Uint64 is out, running
// SplitMix64's output mix backwards: each xor-shift and each multiply
// by an odd constant is a bijection on 64-bit words.
func stateBefore(out uint64) uint64 {
	unshift := func(x uint64, k uint) uint64 {
		for y := x >> k; y != 0; y >>= k {
			x ^= y
		}
		return x
	}
	inverse := func(a uint64) uint64 { // Newton's iteration mod 2^64
		x := a
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	z := unshift(out, 31) * inverse(0x94d049bb133111eb)
	z = unshift(z, 27) * inverse(0xbf58476d1ce4e5b9)
	return unshift(z, 30) - sm64Gamma
}
