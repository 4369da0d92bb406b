package main

import "time"

// The quiet windows do not remove the host's slow spells that outlast a
// whole run: then every window of the run is slow. hostKernel measures
// how fast the host runs this kind of code at the moment. It is a fixed
// computation like the routing engines' per-packet work (random reads
// and writes in a 1 MiB table, steered by data-dependent branches), and
// it is part of the benchmark, so that no change to the program changes
// it. Its time follows the host's spells as the workloads' does; a loop
// of dependent arithmetic barely slows in them, and random reads over
// 4 MiB slow at other times. The timing metrics are scaled by
// kernelNominal over the kernel's quiet time in the run: they read as if
// the host had run at the speed at which the kernel takes kernelNominal.
const (
	kernelIters = 300000
	// kernelNominal is about the kernel's time on an undisturbed vCPU of
	// a 2-vCPU Xeon virtual machine.
	kernelNominal = 3 * time.Millisecond
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
