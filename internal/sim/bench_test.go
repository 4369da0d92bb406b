package sim_test

import (
	"math/rand"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// staggered wraps greedy but admits packet i only from step i/rate, so
// at most ~rate*latency packets are in flight at once — the large-N /
// sparse-activity regime the engine's active-set bookkeeping targets.
type staggered struct {
	baselines.Greedy
	rate int
}

func (s *staggered) WantInject(t int, p *sim.Packet) bool {
	return t >= int(p.ID)/s.rate
}

// sparseProblem is a 4096-packet full-throughput butterfly(12): 53248
// nodes, 98304 edges. With staggered injection only a few percent of
// packets are ever simultaneously active, so a per-step rescan of all
// packets/nodes/edges dwarfs the useful work.
func sparseProblem(tb testing.TB) *workload.Problem {
	tb.Helper()
	g, err := topo.Butterfly(12)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := workload.FullThroughput(g, rand.New(rand.NewSource(71)))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func denseProblem(tb testing.TB) *workload.Problem {
	tb.Helper()
	g, err := topo.Butterfly(8)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := workload.FullThroughput(g, rand.New(rand.NewSource(72)))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// benchSteps times individual engine steps (ns/op = ns/step), rebuilding
// the engine outside the timer whenever a run completes.
func benchSteps(b *testing.B, p *workload.Problem, mk func() sim.Router) {
	b.ReportAllocs()
	e := sim.NewEngine(p, mk(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Done() {
			b.StopTimer()
			e = sim.NewEngine(p, mk(), 1)
			b.StartTimer()
		}
		e.Step()
	}
}

// BenchmarkStepSparse is the acceptance workload of the engine
// overhaul: N=4096 with <=5% in flight at any step.
func BenchmarkStepSparse(b *testing.B) {
	p := sparseProblem(b)
	benchSteps(b, p, func() sim.Router { return &staggered{rate: 16} })
}

// BenchmarkStepDense keeps every packet active for most of the run, the
// regime where the seed engine's full rescan was near-optimal; the
// active-set engine must not regress it.
func BenchmarkStepDense(b *testing.B) {
	p := denseProblem(b)
	benchSteps(b, p, func() sim.Router { return baselines.NewGreedy() })
}

// TestStepSteadyStateAllocsSparse pins the engine hot path at zero
// allocations per step in steady state: injections draw PathList
// backing arrays from the absorbed-packet pool, occupancy lists and
// slot scratch are reused, and nothing in Phases 1-5 grows.
func TestStepSteadyStateAllocsSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("large engine")
	}
	p := sparseProblem(t)
	e := sim.NewEngine(p, &staggered{rate: 8}, 1)
	// Warm up past the first wave so pools and per-node buffers are
	// grown; injections and absorptions are both still happening.
	for i := 0; i < 300; i++ {
		e.Step()
	}
	if e.Done() {
		t.Fatal("warmup completed the run; steady state not reached")
	}
	avg := testing.AllocsPerRun(200, func() { e.Step() })
	if avg != 0 {
		t.Errorf("allocs/step in steady state = %v, want 0", avg)
	}
}

// TestStepSteadyStateAllocsDense does the same with every packet in
// flight (no injections left, pure Phase 2-5 traffic).
func TestStepSteadyStateAllocsDense(t *testing.T) {
	p := denseProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 1)
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if e.Done() {
		t.Fatal("warmup completed the run; steady state not reached")
	}
	avg := testing.AllocsPerRun(50, func() { e.Step() })
	if avg != 0 {
		t.Errorf("allocs/step in steady state = %v, want 0", avg)
	}
}

// TestSparseActivityStaysSparse pins the benchmark's premise: the
// sparse workload never has more than 5% of its packets in flight.
func TestSparseActivityStaysSparse(t *testing.T) {
	if testing.Short() {
		t.Skip("large engine")
	}
	p := sparseProblem(t)
	e := sim.NewEngine(p, &staggered{rate: 16}, 1)
	if _, done := e.Run(1 << 20); !done {
		t.Fatal("sparse run did not complete")
	}
	if limit := p.N() / 20; e.M.MaxInFlight > limit {
		t.Errorf("MaxInFlight = %d, want <= %d (5%% of N=%d)", e.M.MaxInFlight, limit, p.N())
	}
}

// hotSpotCorpus is the greedy-hotspot benchmark's corpus: butterfly(10)
// and the first five hot-spot problems drawn from seed 1, each 1024
// packets from distinct sources to 8 top-level spots, so congestion
// (about 84 to 144) far exceeds the depth of 10.
func hotSpotCorpus(tb testing.TB) []*workload.Problem {
	tb.Helper()
	g, err := topo.Butterfly(10)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ps := make([]*workload.Problem, 5)
	for i := range ps {
		if ps[i], err = workload.HotSpot(g, rng, 1024, 8); err != nil {
			tb.Fatal(err)
		}
	}
	return ps
}

// BenchmarkGreedyHotSpot times the contended step: one op is a Reset
// and a Run of greedy hot-potato routing on the next corpus problem,
// cycling through the corpus with a fresh seed per op. Arbitration and
// deflection dominate: about 40% of a run's moves are deflections. A
// warmed engine allocates nothing.
func BenchmarkGreedyHotSpot(b *testing.B) {
	ps := hotSpotCorpus(b)
	engines := make([]*sim.Engine, len(ps))
	for i, p := range ps {
		engines[i] = sim.NewEngine(p, baselines.NewGreedy(), 0)
		engines[i].Run(1 << 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := engines[i%len(engines)]
		e.Reset(int64(i))
		if _, done := e.Run(1 << 20); !done {
			b.Fatalf("op %d: run did not complete", i)
		}
	}
}
