package sim_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/graph"
	"hotpotato/internal/paths"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// mergeProblem builds a 3-level network where two packets from distinct
// sources merge at a middle node and then share the final edge — the
// smallest instance that forces a hot-potato conflict and a backward
// deflection.
//
//	a(0) \
//	      m(1) -- x(2)
//	b(0) /
func mergeProblem(t *testing.T) *workload.Problem {
	t.Helper()
	b := graph.NewBuilder("merge")
	a := b.AddNode(0, "a")
	bb := b.AddNode(0, "b")
	m := b.AddNode(1, "m")
	x := b.AddNode(2, "x")
	eam := b.AddEdge(a, m)
	ebm := b.AddEdge(bb, m)
	emx := b.AddEdge(m, x)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	set := paths.NewPathSet(g, []graph.Path{{eam, emx}, {ebm, emx}})
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return &workload.Problem{Name: "merge", G: g, Set: set, C: 2, D: 2}
}

func linearProblem(t *testing.T, n, k int) *workload.Problem {
	t.Helper()
	g, err := topo.Linear(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.SingleFile(g, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSinglePacketDelivery(t *testing.T) {
	p := linearProblem(t, 5, 1)
	e := sim.NewEngine(p, baselines.NewGreedy(), 1)
	steps, done := e.Run(100)
	if !done {
		t.Fatal("run did not complete")
	}
	if steps != 4 {
		t.Errorf("steps = %d, want 4 (path length)", steps)
	}
	pkt := &e.Packets[0]
	if !pkt.Absorbed || pkt.InjectTime != 0 || pkt.AbsorbTime != 4 {
		t.Errorf("packet = inject %d absorb %d", pkt.InjectTime, pkt.AbsorbTime)
	}
	if pkt.Latency() != 4 {
		t.Errorf("latency = %d", pkt.Latency())
	}
	if pkt.Deflections != 0 {
		t.Errorf("deflections = %d", pkt.Deflections)
	}
	if e.M.Injected != 1 || e.M.Absorbed != 1 || e.M.Moves != 4 {
		t.Errorf("metrics = %+v", e.M)
	}
}

func TestPipelinedPacketsNoConflict(t *testing.T) {
	// SingleFile packets at staggered levels pipeline without ever
	// colliding under greedy.
	p := linearProblem(t, 6, 3)
	e := sim.NewEngine(p, baselines.NewGreedy(), 2)
	_, done := e.Run(100)
	if !done {
		t.Fatal("run did not complete")
	}
	if d := e.M.TotalDeflections(); d != 0 {
		t.Errorf("deflections = %d, want 0", d)
	}
}

func TestMergeConflictDeflectsBackwardAndSafe(t *testing.T) {
	p := mergeProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 3)
	steps, done := e.Run(100)
	if !done {
		t.Fatal("run did not complete")
	}
	// Both packets inject at t=0, meet at m at t=1, one wins emx, the
	// loser bounces back to its source, retraces, and finishes 2 steps
	// behind: absorbed at 2 and 4. One more conflict cannot happen
	// because the loser trails by two steps.
	if steps != 4 {
		t.Errorf("steps = %d, want 4", steps)
	}
	if d := e.M.TotalDeflections(); d != 1 {
		t.Errorf("deflections = %d, want 1", d)
	}
	if e.M.Deflections[sim.DeflectArrivalReverse] != 1 {
		t.Errorf("deflection kinds = %v, want one arrival-reverse", e.M.Deflections)
	}
	if e.M.UnsafeDeflections() != 0 {
		t.Errorf("unsafe deflections = %d", e.M.UnsafeDeflections())
	}
	lat := []int{e.Packets[0].Latency(), e.Packets[1].Latency()}
	if !(lat[0] == 2 && lat[1] == 4 || lat[0] == 4 && lat[1] == 2) {
		t.Errorf("latencies = %v, want {2,4}", lat)
	}
}

func TestDeflectedPacketPathStaysValid(t *testing.T) {
	p := mergeProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 4)
	e.AddObserver(func(step int, en *sim.Engine) {
		for i := range en.Packets {
			pkt := &en.Packets[i]
			if pkt.Active && !pkt.PathValid(en.G) {
				t.Errorf("step %d: packet %d path invalid: %v (cur %d)", step, pkt.ID, pkt.PathList, pkt.Cur)
			}
		}
	})
	if _, done := e.Run(100); !done {
		t.Fatal("run did not complete")
	}
}

func TestInjectionIsolation(t *testing.T) {
	// SingleFile(linear(4), 3) has sources at levels 0, 1, 2 — all free
	// at t=0, so every packet injects immediately with no waits.
	p := linearProblem(t, 4, 3)
	e := sim.NewEngine(p, baselines.NewGreedy(), 5)
	if _, done := e.Run(100); !done {
		t.Fatal("run did not complete")
	}
	if e.M.InjectionWaits != 0 {
		t.Errorf("InjectionWaits = %d, want 0", e.M.InjectionWaits)
	}

	// Now delay packet 2's injection request so packet 1's transit
	// occupies its source when it finally wants in.
	e2 := sim.NewEngine(p, &delayedInject{delay: map[sim.PacketID]int{2: 1}}, 6)
	if _, done := e2.Run(100); !done {
		t.Fatal("delayed run did not complete")
	}
	if e2.M.InjectionWaits == 0 {
		t.Error("expected injection waits when source is occupied")
	}
	if e2.M.Injected != 3 || e2.M.Absorbed != 3 {
		t.Errorf("metrics = %+v", e2.M)
	}
}

// delayedInject wraps greedy but holds selected packets out until the
// given step.
type delayedInject struct {
	baselines.Greedy
	delay map[sim.PacketID]int
	g     *graph.Leveled
}

func (d *delayedInject) Init(e *sim.Engine) { d.g = e.G; d.Greedy.Init(e) }

func (d *delayedInject) WantInject(t int, p *sim.Packet) bool {
	return t >= d.delay[p.ID]
}

func (d *delayedInject) Request(t int, p *sim.Packet) sim.Request {
	return sim.Request{Edge: p.PathList[0], Dir: d.g.DirectionFrom(p.PathList[0], p.Cur), Priority: 0}
}

func TestVoluntaryBackwardRequestPrependsPath(t *testing.T) {
	// A router that, once the packet reaches level 1, requests its
	// arrival edge backward (the wait-state oscillation move), then
	// resumes. The path list must grow by the prepended edge and shrink
	// again on the retrace.
	g, err := topo.Linear(4)
	if err != nil {
		t.Fatal(err)
	}
	set := paths.NewPathSet(g, []graph.Path{{0, 1, 2}})
	p := &workload.Problem{Name: "osc", G: g, Set: set, C: 1, D: 3}
	r := &oscillateOnce{}
	e := sim.NewEngine(p, r, 7)
	steps, done := e.Run(100)
	if !done {
		t.Fatal("run did not complete")
	}
	// Path: fwd (t0), back (t1), fwd (t2), fwd (t3), fwd (t4) => 5 steps.
	if steps != 5 {
		t.Errorf("steps = %d, want 5", steps)
	}
	pkt := &e.Packets[0]
	if pkt.BackwardMoves != 1 || pkt.ForwardMoves != 4 {
		t.Errorf("moves fwd=%d back=%d", pkt.ForwardMoves, pkt.BackwardMoves)
	}
	if !r.sawPrepend {
		t.Error("path was never prepended during oscillation")
	}
}

type oscillateOnce struct {
	g          *graph.Leveled
	oscillated bool
	sawPrepend bool
}

func (o *oscillateOnce) Name() string                     { return "oscillate-once" }
func (o *oscillateOnce) Init(e *sim.Engine)               { o.g = e.G }
func (o *oscillateOnce) WantInject(int, *sim.Packet) bool { return true }

func (o *oscillateOnce) Request(t int, p *sim.Packet) sim.Request {
	if !o.oscillated && p.ArrivalEdge != graph.NoEdge && o.g.Node(p.Cur).Level == 1 {
		o.oscillated = true
		return sim.Request{Edge: p.ArrivalEdge, Dir: p.ArrivalDir.Reverse(), Priority: 0}
	}
	if o.oscillated && len(p.PathList) == 3 && p.Cur == 0 {
		o.sawPrepend = true
	}
	return sim.Request{Edge: p.PathList[0], Dir: o.g.DirectionFrom(p.PathList[0], p.Cur), Priority: 0}
}

func TestPriorityWinsConflict(t *testing.T) {
	// On the merge problem give packet 0 an always-higher priority; it
	// must never be deflected.
	p := mergeProblem(t)
	for trial := 0; trial < 10; trial++ {
		r := &priorityRouter{prio: map[sim.PacketID]int64{0: 10, 1: 0}}
		e := sim.NewEngine(p, r, int64(trial))
		if _, done := e.Run(100); !done {
			t.Fatal("run did not complete")
		}
		if e.Packets[0].Deflections != 0 {
			t.Errorf("trial %d: high-priority packet deflected %d times", trial, e.Packets[0].Deflections)
		}
		if e.Packets[1].Deflections != 1 {
			t.Errorf("trial %d: low-priority packet deflected %d times, want 1", trial, e.Packets[1].Deflections)
		}
	}
}

type priorityRouter struct {
	g    *graph.Leveled
	prio map[sim.PacketID]int64
}

func (r *priorityRouter) Name() string                     { return "priority" }
func (r *priorityRouter) Init(e *sim.Engine)               { r.g = e.G }
func (r *priorityRouter) WantInject(int, *sim.Packet) bool { return true }
func (r *priorityRouter) Request(t int, p *sim.Packet) sim.Request {
	return sim.Request{Edge: p.PathList[0], Dir: r.g.DirectionFrom(p.PathList[0], p.Cur), Priority: r.prio[p.ID]}
}

func TestDeterminismSameSeed(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	p, err := workload.HotSpot(g, rng, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) (int, [4]int) {
		e := sim.NewEngine(p, baselines.NewGreedy(), seed)
		steps, done := e.Run(10000)
		if !done {
			t.Fatal("run did not complete")
		}
		return steps, e.M.Deflections
	}
	s1, d1 := run(42)
	s2, d2 := run(42)
	if s1 != s2 || d1 != d2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", s1, d1, s2, d2)
	}
}

func TestLinkCapacityNeverExceeded(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	p, err := workload.HotSpot(g, rng, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p, baselines.NewGreedy(), 8)
	e.AddObserver(func(step int, en *sim.Engine) {
		// Occupancy of any node never exceeds its degree (else the next
		// step could not assign slots).
		for v := 0; v < en.G.NumNodes(); v++ {
			if occ := len(en.At(graph.NodeID(v))); occ > en.G.Node(graph.NodeID(v)).Degree() {
				t.Fatalf("step %d: node %d holds %d packets, degree %d", step, v, occ, en.G.Node(graph.NodeID(v)).Degree())
			}
		}
	})
	if _, done := e.Run(10000); !done {
		t.Fatal("run did not complete")
	}
}

func TestGreedyOnButterflyWorkloads(t *testing.T) {
	g, err := topo.Butterfly(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, mk := range []func() (*workload.Problem, error){
		func() (*workload.Problem, error) { return workload.FullThroughput(g, rng) },
		func() (*workload.Problem, error) { return workload.Random(g, rng, 0.4) },
	} {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine(p, baselines.NewGreedy(), 9)
		steps, done := e.Run(100000)
		if !done {
			t.Fatalf("%s: did not complete in %d steps", p.Name, steps)
		}
		if steps < p.D {
			t.Errorf("%s: steps %d < dilation %d", p.Name, steps, p.D)
		}
		for i := range e.Packets {
			if lat := e.Packets[i].Latency(); lat < len(e.Packets[i].Preselected) {
				t.Errorf("%s: packet %d latency %d below path length %d", p.Name, i, lat, len(e.Packets[i].Preselected))
			}
		}
	}
}

func TestRandGreedyCompletesAndExcites(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	p, err := workload.HotSpot(g, rng, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := baselines.NewRandGreedy(0.1)
	e := sim.NewEngine(p, r, 11)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	if r.Excitations == 0 {
		t.Error("no excitations happened")
	}
}

func TestFarthestToGoCompletes(t *testing.T) {
	g, err := topo.Butterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	p, err := workload.HotSpot(g, rng, 25, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p, baselines.NewFarthestToGo(), 13)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
}

func TestRequestValidationPanics(t *testing.T) {
	p := linearProblem(t, 3, 1)
	r := &badRouter{}
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-incident edge request")
		}
	}()
	e := sim.NewEngine(p, r, 14)
	e.Step()
}

type badRouter struct{}

func (*badRouter) Name() string                     { return "bad" }
func (*badRouter) Init(*sim.Engine)                 {}
func (*badRouter) WantInject(int, *sim.Packet) bool { return true }
func (*badRouter) Request(t int, p *sim.Packet) sim.Request {
	return sim.Request{Edge: 1, Dir: graph.Forward} // not incident to level-0 node
}

func TestMaxStepsBudget(t *testing.T) {
	p := linearProblem(t, 10, 1)
	e := sim.NewEngine(p, baselines.NewGreedy(), 15)
	steps, done := e.Run(3)
	if done || steps != 3 {
		t.Errorf("Run(3) = (%d,%v), want (3,false)", steps, done)
	}
	// Continue to completion.
	steps, done = e.Run(100)
	if !done || steps != 9 {
		t.Errorf("resumed run = (%d,%v), want (9,true)", steps, done)
	}
}

// recorder wraps a router and logs every notification that reports an
// outcome (deflect, move, absorb) — the engine's full router-visible
// trace — forwarding each to the inner router when it is a
// sim.Notifier. WantInject and Request are passed through unlogged.
type recorder struct {
	inner  sim.Router
	notify sim.Notifier // inner's, nil when it has none
	log    strings.Builder
}

func newRecorder(inner sim.Router) *recorder {
	n, _ := inner.(sim.Notifier)
	return &recorder{inner: inner, notify: n}
}

func (r *recorder) Name() string       { return r.inner.Name() }
func (r *recorder) Init(e *sim.Engine) { r.inner.Init(e) }
func (r *recorder) WantInject(t int, p *sim.Packet) bool {
	return r.inner.WantInject(t, p)
}
func (r *recorder) Request(t int, p *sim.Packet) sim.Request {
	return r.inner.Request(t, p)
}
func (r *recorder) OnDeflect(t int, p *sim.Packet, e graph.EdgeID, k sim.DeflectKind) {
	fmt.Fprintf(&r.log, "d %d %d %d %d\n", t, p.ID, e, k)
	if r.notify != nil {
		r.notify.OnDeflect(t, p, e, k)
	}
}
func (r *recorder) OnMove(t int, p *sim.Packet) {
	fmt.Fprintf(&r.log, "m %d %d %d\n", t, p.ID, p.Cur)
	if m, ok := r.inner.(sim.MoveNotifier); ok {
		m.OnMove(t, p)
	}
}
func (r *recorder) OnAbsorb(t int, p *sim.Packet) {
	fmt.Fprintf(&r.log, "a %d %d\n", t, p.ID)
	if r.notify != nil {
		r.notify.OnAbsorb(t, p)
	}
}
func (r *recorder) EndStep(t int, e *sim.Engine) {
	if r.notify != nil {
		r.notify.EndStep(t, e)
	}
}

// plannerRecorder forwards the inner router's InjectionPlanner bound,
// so recorded runs exercise the engine's release queue exactly like
// unwrapped runs (a wrapper that hid InjectStep would fall back to the
// full pending sweep).
type plannerRecorder struct{ *recorder }

func (r *plannerRecorder) InjectStep(p *sim.Packet) int {
	return r.inner.(sim.InjectionPlanner).InjectStep(p)
}

// wrapRecorder wraps the router, keeping its InjectionPlanner bound.
func wrapRecorder(inner sim.Router) (sim.Router, *recorder) {
	rec := newRecorder(inner)
	if _, ok := inner.(sim.InjectionPlanner); ok {
		return &plannerRecorder{rec}, rec
	}
	return rec, rec
}

// fullTrace runs the problem to completion and returns the metrics plus
// a byte-exact trace: every router callback in order, then the final
// state of every packet including its remaining path list. An optional
// trailing fault model runs the engine under that campaign.
func fullTrace(tb testing.TB, p *workload.Problem, mk func() sim.Router, seed int64, faults ...sim.FaultModel) (sim.Metrics, string) {
	tb.Helper()
	router, rec := wrapRecorder(mk())
	var fm sim.FaultModel
	for _, f := range faults {
		fm = f
	}
	return recordedTrace(tb, p, router, rec, seed, fm)
}

// recordedTrace runs router (which reports to rec) on the problem to
// completion under fault model fm (nil for none) and returns the
// metrics plus the byte-exact trace.
func recordedTrace(tb testing.TB, p *workload.Problem, router sim.Router, rec *recorder, seed int64, fm sim.FaultModel) (sim.Metrics, string) {
	tb.Helper()
	e := sim.NewEngine(p, router, seed)
	if fm != nil {
		e.Faults = fm
	}
	if _, done := e.Run(100000); !done {
		tb.Fatalf("run did not complete")
	}
	return e.M, finalTrace(e, rec)
}

// finalTrace renders the byte-exact identity of a completed run: the
// recorded callback log followed by the final state of every packet.
func finalTrace(e *sim.Engine, rec *recorder) string {
	var b strings.Builder
	b.WriteString(rec.log.String())
	for i := range e.Packets {
		pk := &e.Packets[i]
		fmt.Fprintf(&b, "p %d %d %d %d %d %d %d %v\n", pk.ID, pk.Cur,
			pk.InjectTime, pk.AbsorbTime, pk.Deflections,
			pk.ForwardMoves, pk.BackwardMoves, pk.PathList)
	}
	return b.String()
}

func matrixProblems(tb testing.TB) map[string]*workload.Problem {
	tb.Helper()
	ps := map[string]*workload.Problem{}

	g, err := topo.Butterfly(6)
	if err != nil {
		tb.Fatal(err)
	}
	bf, err := workload.FullThroughput(g, rand.New(rand.NewSource(7)))
	if err != nil {
		tb.Fatal(err)
	}
	ps["butterfly"] = bf

	mh, err := workload.MeshHard(8)
	if err != nil {
		tb.Fatal(err)
	}
	ps["mesh"] = mh

	rng := rand.New(rand.NewSource(9))
	rg, err := topo.Random(rng, 18, 3, 6, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	rp, err := workload.Random(rg, rng, 0.6)
	if err != nil {
		tb.Fatal(err)
	}
	ps["random"] = rp
	return ps
}

// TestEngineResetMatchesFresh: a reused engine rewound with Reset must
// reproduce a fresh engine's run exactly — including when the reset
// interrupts a run in flight.
func TestEngineResetMatchesFresh(t *testing.T) {
	for pname, p := range matrixProblems(t) {
		t.Run(pname, func(t *testing.T) {
			mk := func() sim.Router { return baselines.NewOldestFirst() }
			wantM, wantTr := fullTrace(t, p, mk, 5)

			// Reuse one engine across three scenarios: a completed run
			// with another seed, a mid-run abandonment, then the target
			// seed.
			router, rec := wrapRecorder(mk())
			e := sim.NewEngine(p, router, 99)
			e.Run(100000)
			e.Reset(7)
			for i := 0; i < 3 && !e.Done(); i++ {
				e.Step()
			}
			e.Reset(5)
			rec.log.Reset()
			if _, done := e.Run(100000); !done {
				t.Fatal("reused run did not complete")
			}
			if e.M != wantM {
				t.Errorf("metrics differ after Reset:\n got %+v\nwant %+v", e.M, wantM)
			}
			if finalTrace(e, rec) != wantTr {
				t.Errorf("trace differs after Reset")
			}
		})
	}
}
