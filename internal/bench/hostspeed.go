package bench

import "time"

// On a shared virtual machine the same code runs up to twice as slow
// while the neighbours are busy, in spells that can outlast a whole
// suite, so two recordings of unchanged code can differ by more than the
// regression gate's tolerance. hostKernel measures how fast the host
// runs this kind of code at the moment: a fixed computation like the
// engines' per-packet work (random reads and writes in a 1 MiB table,
// steered by data-dependent branches), timed beside every rep. Compare
// gates the reps scaled by it (Row.Scaled). It is the outside-in
// benchmark's kernel (benchmark/hostspeed.go); keep the two the same,
// and never change either, or recordings made before and after stop
// being comparable.
const (
	kernelIters = 300000
	// kernelRuns is how many times the kernel runs beside a rep; the
	// fastest run counts, so one preemption does not read as a slow
	// host.
	kernelRuns = 3
	// kernelNominalNs is about the kernel's time on an undisturbed vCPU
	// of a 2-vCPU Xeon virtual machine. Scaled reps read as if the host
	// had run at that speed.
	kernelNominalNs = 3e6
)

type hostKernel struct {
	table []uint64
	x     uint64
}

func newHostKernel() *hostKernel {
	return &hostKernel{table: make([]uint64, 1<<17), x: 88172645463325252}
}

// run runs the kernel once and returns its time.
func (k *hostKernel) run() time.Duration {
	start := time.Now()
	t, x := k.table, k.x
	mask := uint64(len(t) - 1)
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		switch v := t[j]; {
		case v&1 == 0:
			t[j] = v + x>>40
		case v&2 == 0:
			t[(j+1)&mask] ^= v
		default:
			t[j] = v >> 1
		}
	}
	k.x = x
	return time.Since(start)
}

// quietNs returns the fastest of kernelRuns runs, in nanoseconds.
func (k *hostKernel) quietNs() float64 {
	best := k.run()
	for i := 1; i < kernelRuns; i++ {
		best = min(best, k.run())
	}
	return float64(best.Nanoseconds())
}
