package core

import (
	"testing"

	"hotpotato/internal/stats"
)

// BenchmarkFrameRunnerHotSpot times one frame run on the first
// frame-batch corpus problem (butterfly(10), 1024 packets, C = 84) with
// a reused Runner. steps/op is the simulated makespan, about 171k steps
// of which only about 850 to 1,300 execute (packets in flight or
// waiting on an occupied source, over the five corpus problems and
// seeds 1-10); Run fast-forwards over the rest, so ns/op follows the
// busy steps' ~9,300 moves and the per-run Reset and summaries.
func BenchmarkFrameRunnerHotSpot(b *testing.B) {
	p := corpus(b)[0]
	r := NewRunner(p, DefaultPractical(p.C, p.L(), p.N()), 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res := r.Run(RunOptions{Seed: int64(i + 1)})
		if !res.Done {
			b.Fatalf("seed %d: not done after %d steps", i+1, res.Steps)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// TestRunnerAllocsPerRun pins a reused Runner's per-run allocations:
// the engine, the router and the latency sample buffers are all reused
// and the summaries sort the buffers in place, so a run allocates little
// beyond its Result. The in-place summaries must equal stats.Summarize
// of the same samples.
func TestRunnerAllocsPerRun(t *testing.T) {
	p := corpus(t)[0]
	r := NewRunner(p, DefaultPractical(p.C, p.L(), p.N()), 1, 0)
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		r.Run(RunOptions{Seed: seed})
	})
	if allocs > 4 {
		t.Errorf("Runner.Run allocates %v times per run, want <= 4", allocs)
	}

	res := r.Run(RunOptions{Seed: 1})
	var waits, transits []float64
	for i := range r.eng.Packets {
		pk := &r.eng.Packets[i]
		if pk.InjectTime >= 0 {
			waits = append(waits, float64(pk.InjectTime))
		}
		if pk.Absorbed {
			transits = append(transits, float64(pk.Latency()))
		}
	}
	if want := stats.Summarize(waits); res.InjectWait != want {
		t.Errorf("InjectWait = %v, want %v", res.InjectWait, want)
	}
	if want := stats.Summarize(transits); res.Transit != want {
		t.Errorf("Transit = %v, want %v", res.Transit, want)
	}
}
