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
