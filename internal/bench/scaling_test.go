package bench

import (
	"runtime"
	"testing"
)

// needCores raises GOMAXPROCS to NumCPU for the rest of the test (a low
// ambient GOMAXPROCS — e.g. from a container limit or the test runner —
// must not silently turn a scaling gate into a skip) and skips only
// when the hardware truly has fewer than 4 CPUs, where workers
// time-slice and no speedup is possible. Also skips under -short.
func needCores(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("scaling measurement is slow; skipped under -short")
	}
	if n := runtime.NumCPU(); n < 4 {
		t.Skipf("NumCPU = %d < 4: hardware cannot show parallel speedup", n)
	} else if runtime.GOMAXPROCS(0) < n {
		old := runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
		t.Logf("raised GOMAXPROCS %d -> %d for the scaling gate", old, n)
	}
}

// TestParallelStepScaling runs the recorded workers sweep on the
// sparse butterfly(12) workload (the -bench parallel suite at scale 2)
// and asserts real speedup at 4 workers.
func TestParallelStepScaling(t *testing.T) {
	needCores(t)
	d, err := Run("parallel", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Rows {
		t.Logf("%s: %.0f ns/step, speedup %.2fx", r.Name, stepCost(r), r.Metrics["speedup_vs_1"])
	}
	if err := CheckParallelSpeedup(d, 4, 1.5); err != nil {
		t.Error(err)
	}
}

// TestParallelEfficiencyRecorded runs the quick workers sweep and
// asserts the workers=4 row carries a parallel_efficiency of at least
// 0.5 — i.e. ≥2x steady speedup over workers=1.
func TestParallelEfficiencyRecorded(t *testing.T) {
	needCores(t)
	d, err := Run("parallel", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckParallelSpeedup(d, 4, 2); err != nil {
		t.Error(err)
	}
}
