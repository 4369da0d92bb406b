package dynamic

import (
	"testing"

	"hotpotato/internal/topo"
)

// chi2Uniform computes the chi-square statistic of observed counts
// against a uniform expectation (mirrors internal/sim/rng_test.go).
func chi2Uniform(counts []int, total int) float64 {
	expected := float64(total) / float64(len(counts))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// Critical chi-square values at p=0.001. The draws come from a fixed
// seed, so a pass is permanent — the cutoffs guard against a biased
// arbitration rule, not sampling noise.
var chi2Crit = map[int]float64{
	1: 10.83, // df=1
	2: 13.82, // df=2
	3: 16.27, // df=3
	7: 24.32, // df=7
}

// TestReservoirArbitrationUniform replays the engine's winner-selection
// loop — first contender seeds the slot, the k-th replaces it when its
// precomputed draw in [0, k) gives 0 — over many independent conflicts
// and chi-square tests that each of k contenders wins with probability
// 1/k.
// The prior Intn(2) coin gave the LAST contender probability 1/2
// regardless of k (and starved the middle of a 3-way conflict down to
// 1/4); at these sample sizes that bias fails by orders of magnitude.
func TestReservoirArbitrationUniform(t *testing.T) {
	src := newSM64(1)
	for _, k := range []int{2, 3, 4, 8} {
		keep := make([]bound, k+1)
		for c := 1; c <= k; c++ {
			keep[c] = newBound(c)
		}
		counts := make([]int, k)
		const trials = 40000
		for trial := 0; trial < trials; trial++ {
			winner := 0
			for c := 1; c < k; c++ {
				if src.below(&keep[c+1]) == 0 {
					winner = c
				}
			}
			counts[winner]++
		}
		crit := chi2Crit[k-1]
		if chi2 := chi2Uniform(counts, trials); chi2 > crit {
			t.Errorf("k=%d: winner counts %v, chi-square %.1f exceeds %.1f (df=%d, p=0.001); arbitration is not 1/k-uniform",
				k, counts, chi2, crit, k-1)
		} else {
			t.Logf("k=%d: chi-square %.1f (df=%d)", k, chi2, k-1)
		}
	}
}

// TestReservoirArbitrationEndToEnd drives the real request loop: many
// sources contending for the same structural conflict keep long-run
// deflection counts seed-stable but — more to the point here —
// sanity-checks that the reservoir rule, the engine's keepDraw table,
// is actually reachable from Run (a conflict with k>2 contenders occurs
// and resolves without error).
func TestReservoirArbitrationEndToEnd(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{Lambda: 0.9, Steps: 400, Warmup: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deflections == 0 {
		t.Fatal("no deflections under heavy load; conflicts never happened")
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
