package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortReleaseMatchesSort checks the radix release schedule against
// slices.Sort of the packed values: entries appended in ascending packet
// ID, as Reset builds them, over random release bounds with duplicates,
// bounds spread over every byte of the step, and the clamps below 0 and
// above 2^31-1.
func TestSortReleaseMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draws := []func() int{
		func() int { return rng.Intn(4) },                      // heavy duplicates
		func() int { return rng.Intn(40) * 480 },               // phase starts
		func() int { return rng.Intn(1 << 31) },                // every byte differs
		func() int { return rng.Intn(3) << (8 * rng.Intn(4)) }, // one byte at a time
		func() int { return rng.Intn(1<<33) - 1<<32 },          // both clamps
		func() int { return 7 },                                // all equal
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(2000)
		if trial < 4 {
			n = trial // empty and tiny schedules
		}
		draw := draws[trial%len(draws)]
		sched := make([]uint64, 0, n)
		pid := PacketID(0)
		for len(sched) < n {
			pid += PacketID(1 + rng.Intn(3)) // ascending IDs with gaps
			sched = append(sched, injPack(draw(), pid))
		}
		want := slices.Clone(sched)
		slices.Sort(want)
		got, spare := sortRelease(sched, make([]uint64, n))
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): radix order differs from slices.Sort", trial, n)
		}
		if len(spare) != n {
			t.Fatalf("trial %d: spare has %d entries, want %d", trial, len(spare), n)
		}
	}
	if injPack(-5, 3) != injPack(0, 3) || injPack(1<<40, 3) != injPack(1<<31-1, 3) {
		t.Fatal("injPack does not clamp release steps to [0, 2^31-1]")
	}
}
