package sim_test

import (
	"math"
	"testing"

	"hotpotato/internal/sim"
)

// chi2Uniform computes the chi-square statistic of observed counts
// against a uniform expectation.
func chi2Uniform(counts []int, total int) float64 {
	expected := float64(total) / float64(len(counts))
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	return chi2
}

// Critical chi-square values at p=0.001. The draws are deterministic
// (counter-based generators, fixed streams), so a pass is permanent —
// the cutoffs guard against regressions in the mixer, not sampling
// noise.
const (
	chi2Crit63 = 103.5 // df=63
	chi2Crit49 = 85.4  // df=49
)

// TestCoinFloatUniform bins CoinFloat draws across a (step, packet)
// grid into 64 cells and chi-square tests uniformity. A weak mixer —
// e.g. one that only avalanches the low word — concentrates mass and
// fails by orders of magnitude.
func TestCoinFloatUniform(t *testing.T) {
	const bins = 64
	for _, stream := range []uint64{sim.StreamSeed(1, 0xE5), sim.StreamSeed(77, 0xE5)} {
		counts := make([]int, bins)
		total := 0
		for step := 0; step < 200; step++ {
			for pid := sim.PacketID(0); pid < 100; pid++ {
				u := sim.CoinFloat(stream, step, pid)
				if u < 0 || u >= 1 {
					t.Fatalf("CoinFloat out of [0,1): %g", u)
				}
				counts[int(u*bins)]++
				total++
			}
		}
		if chi2 := chi2Uniform(counts, total); chi2 > chi2Crit63 {
			t.Errorf("stream %#x: chi-square %.1f exceeds %.1f (df=63, p=0.001); coin is not uniform",
				stream, chi2, chi2Crit63)
		} else {
			t.Logf("stream %#x: chi-square %.1f (df=63)", stream, chi2)
		}
	}
}

// TestCoinThresholdMatchesFloat checks the integer coin against the
// float one: CoinBits < CoinThreshold(q) exactly when CoinFloat < q, for
// the frame router's q values, the ends of [0, 1], and q at and one ulp
// either side of a drawn coin, where an off-by-one threshold would show.
func TestCoinThresholdMatchesFloat(t *testing.T) {
	stream := sim.StreamSeed(9, 0xF4A3C017)
	for step := 0; step < 200; step++ {
		for pid := sim.PacketID(0); pid < 50; pid++ {
			u := sim.CoinFloat(stream, step, pid)
			bits := sim.CoinBits(stream, step, pid)
			for _, q := range []float64{0, 1, 0.5, 0.02707369065898643, 0.05, 0.1, 1 / math.E,
				u, math.Nextafter(u, 0), math.Nextafter(u, 1)} {
				if got, want := bits < sim.CoinThreshold(q), u < q; got != want {
					t.Fatalf("step %d packet %d q %v: integer coin says %v, float coin %v < q says %v", step, pid, q, got, u, want)
				}
			}
		}
	}
}

// TestCoinFloatCrossStepIndependence checks that the same packet's
// draws at consecutive steps are independent: the pair (u_t, u_{t+1})
// binned on an 8x8 grid must be uniform, and the serial correlation
// must vanish. A counter-based generator with a linear (un-avalanched)
// step dependence fails both.
func TestCoinFloatCrossStepIndependence(t *testing.T) {
	stream := sim.StreamSeed(3, 0xC01)
	const grid = 8
	counts := make([]int, grid*grid)
	total := 0
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	for step := 0; step < 300; step++ {
		for pid := sim.PacketID(0); pid < 80; pid++ {
			x := sim.CoinFloat(stream, step, pid)
			y := sim.CoinFloat(stream, step+1, pid)
			counts[int(x*grid)*grid+int(y*grid)]++
			total++
			sumXY += x * y
			sumX += x
			sumY += y
			sumX2 += x * x
			sumY2 += y * y
		}
	}
	if chi2 := chi2Uniform(counts, total); chi2 > chi2Crit63 {
		t.Errorf("pair grid chi-square %.1f exceeds %.1f (df=63, p=0.001); consecutive-step draws are dependent",
			chi2, chi2Crit63)
	}
	n := float64(total)
	cov := sumXY/n - (sumX/n)*(sumY/n)
	vx := sumX2/n - (sumX/n)*(sumX/n)
	vy := sumY2/n - (sumY/n)*(sumY/n)
	r := cov / math.Sqrt(vx*vy)
	// |r| ~ N(0, 1/sqrt(n)) under independence; 1/sqrt(24000) ~ 0.0065,
	// so 0.025 is a ~4-sigma guard.
	if math.Abs(r) > 0.025 {
		t.Errorf("serial correlation %.4f between steps t and t+1; want ~0", r)
	} else {
		t.Logf("serial correlation %.4f over %d pairs", r, total)
	}
}

// TestArbKeyUniform bins the arbitration key's high bits across
// contenders of one slot and across steps. The key stream decides
// every equal-priority conflict in the engine; bias here is bias in
// who wins (the seed engine's Intn(2) bug, caught end-to-end by
// TestTieBreakUniform, would also have failed a direct key test).
func TestArbKeyUniform(t *testing.T) {
	seed := sim.ArbStreamForTest(42)
	const bins = 64
	counts := make([]int, bins)
	total := 0
	for step := 0; step < 250; step++ {
		for slot := int32(0); slot < 4; slot++ {
			for pid := sim.PacketID(0); pid < 20; pid++ {
				k := sim.ArbKeyForTest(seed, step, slot, pid)
				counts[k>>58]++ // top 6 bits
				total++
			}
		}
	}
	if chi2 := chi2Uniform(counts, total); chi2 > chi2Crit63 {
		t.Errorf("arbKey high-bits chi-square %.1f exceeds %.1f (df=63, p=0.001)", chi2, chi2Crit63)
	} else {
		t.Logf("arbKey high-bits chi-square %.1f (df=63)", chi2)
	}
}

// TestArbKeyCrossStepIndependence: the winner of slot s at step t must
// not predict the winner at step t+1. With two contenders, record who
// holds the larger key at t and at t+1, and chi-square the 2x2
// contingency table for independence (df=1, p=0.001 cutoff 10.83).
func TestArbKeyCrossStepIndependence(t *testing.T) {
	seed := sim.ArbStreamForTest(7)
	var table [2][2]int
	total := 0
	for step := 0; step < 4000; step++ {
		for slot := int32(0); slot < 5; slot++ {
			wNow := 0
			if sim.ArbKeyForTest(seed, step, slot, 1) > sim.ArbKeyForTest(seed, step, slot, 0) {
				wNow = 1
			}
			wNext := 0
			if sim.ArbKeyForTest(seed, step+1, slot, 1) > sim.ArbKeyForTest(seed, step+1, slot, 0) {
				wNext = 1
			}
			table[wNow][wNext]++
			total++
		}
	}
	rows := [2]int{table[0][0] + table[0][1], table[1][0] + table[1][1]}
	cols := [2]int{table[0][0] + table[1][0], table[0][1] + table[1][1]}
	chi2 := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e := float64(rows[i]) * float64(cols[j]) / float64(total)
			d := float64(table[i][j]) - e
			chi2 += d * d / e
		}
	}
	if chi2 > 10.83 {
		t.Errorf("winner contingency %v: chi-square %.2f exceeds 10.83 (df=1, p=0.001); consecutive-step winners are correlated",
			table, chi2)
	} else {
		t.Logf("winner contingency %v: chi-square %.2f (df=1)", table, chi2)
	}
}

// TestStreamSeedSeparation: streams derived from the same run seed
// with different salts must be unrelated — a router coin must never
// echo engine arbitration. Tested as cross-stream pair uniformity.
func TestStreamSeedSeparation(t *testing.T) {
	a := sim.StreamSeed(5, 0xA5B35705) // the engine-arbitration salt
	b := sim.StreamSeed(5, 0xD15C0)
	if a == b {
		t.Fatal("distinct salts produced the same stream")
	}
	const grid = 8
	counts := make([]int, grid*grid)
	total := 0
	for step := 0; step < 300; step++ {
		for pid := sim.PacketID(0); pid < 80; pid++ {
			x := sim.CoinFloat(a, step, pid)
			y := sim.CoinFloat(b, step, pid)
			counts[int(x*grid)*grid+int(y*grid)]++
			total++
		}
	}
	if chi2 := chi2Uniform(counts, total); chi2 > chi2Crit63 {
		t.Errorf("cross-stream pair chi-square %.1f exceeds %.1f (df=63, p=0.001); salted streams are correlated",
			chi2, chi2Crit63)
	}
}
