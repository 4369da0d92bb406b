package obs_test

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

func testProblem(t *testing.T) *workload.Problem {
	t.Helper()
	rng := rand.New(rand.NewSource(2))
	g, err := topo.Random(rng, 14, 2, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rng, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func frameSetup(t *testing.T, p *workload.Problem) (*core.Frame, core.Schedule) {
	t.Helper()
	params := core.ParamsPractical(p.C, p.L(), p.N(),
		core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	r := core.NewFrame(params)
	return r, r.Schedule()
}

// TestCollectorAnnotatesSteps: every committed step produces one
// annotated row whose phase/round/frame-target columns match the
// schedule arithmetic, and whose counter columns sum to the engine's
// cumulative metrics.
func TestCollectorAnnotatesSteps(t *testing.T) {
	p := testProblem(t)
	router, sched := frameSetup(t, p)
	e := sim.NewEngine(p, router, 4)
	ts := &obs.TimeSeries{}
	coll := obs.NewCollector(sched, ts)
	coll.Attach(e)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	coll.Flush()

	if len(ts.Steps) != steps {
		t.Fatalf("step rows = %d, steps = %d", len(ts.Steps), steps)
	}
	var injected, absorbed, moves, defl int
	for i := range ts.Steps {
		r := &ts.Steps[i]
		if r.Step != i {
			t.Fatalf("row %d carries step %d", i, r.Step)
		}
		if r.Phase != sched.PhaseOf(r.Step) || r.Round != sched.RoundOf(r.Step) {
			t.Fatalf("step %d annotated (phase=%d, round=%d), schedule says (%d, %d)",
				r.Step, r.Phase, r.Round, sched.PhaseOf(r.Step), sched.RoundOf(r.Step))
		}
		if len(r.FrameTargets) != sched.Sets() {
			t.Fatalf("step %d: %d frame targets, %d sets", r.Step, len(r.FrameTargets), sched.Sets())
		}
		for set, tl := range r.FrameTargets {
			if want := sched.TargetLevel(set, r.Phase, r.Round); tl != want {
				t.Fatalf("step %d set %d: target %d, schedule says %d", r.Step, set, tl, want)
			}
		}
		occ := 0
		for _, c := range r.Occupancy {
			occ += c
		}
		if occ != r.Active {
			t.Fatalf("step %d: occupancy sums to %d, active = %d", r.Step, occ, r.Active)
		}
		injected += r.Injected
		absorbed += r.Absorbed
		moves += r.Moves
		for _, d := range r.Deflections {
			defl += d
		}
	}
	totalDefl := 0
	for _, d := range e.M.Deflections {
		totalDefl += d
	}
	if injected != e.M.Injected || absorbed != e.M.Absorbed || moves != e.M.Moves || defl != totalDefl {
		t.Errorf("per-step deltas do not sum to cumulative metrics: injected %d/%d absorbed %d/%d moves %d/%d deflections %d/%d",
			injected, e.M.Injected, absorbed, e.M.Absorbed, moves, e.M.Moves, defl, totalDefl)
	}
}

// TestCollectorWindows: round and phase rows are window sums — the
// same totals as the step rows, grouped by the schedule's boundaries,
// with the trailing partial window emitted by Flush.
func TestCollectorWindows(t *testing.T) {
	p := testProblem(t)
	router, sched := frameSetup(t, p)
	e := sim.NewEngine(p, router, 4)
	ts := &obs.TimeSeries{}
	coll := obs.NewCollector(sched, ts)
	coll.Attach(e)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	coll.Flush()

	if len(ts.Rounds) == 0 || len(ts.Phases) == 0 {
		t.Fatalf("no window rows (rounds=%d phases=%d)", len(ts.Rounds), len(ts.Phases))
	}
	sum := func(rows []obs.StepStats) (injected, absorbed, excited int) {
		for i := range rows {
			injected += rows[i].Injected
			absorbed += rows[i].Absorbed
			excited += rows[i].Excited
		}
		return
	}
	si, sa, se := sum(ts.Steps)
	ri, ra, re := sum(ts.Rounds)
	pi, pa, pe := sum(ts.Phases)
	if si != ri || sa != ra || se != re {
		t.Errorf("round windows lose mass: steps (%d,%d,%d) vs rounds (%d,%d,%d)", si, sa, se, ri, ra, re)
	}
	if si != pi || sa != pa || se != pe {
		t.Errorf("phase windows lose mass: steps (%d,%d,%d) vs phases (%d,%d,%d)", si, sa, se, pi, pa, pe)
	}
	// Window rows are labeled by their last step, in increasing order,
	// with strictly increasing phase labels across phase rows.
	last := -1
	for i := range ts.Phases {
		r := &ts.Phases[i]
		if r.Step <= last {
			t.Fatalf("phase row %d not ordered: step %d after %d", i, r.Step, last)
		}
		last = r.Step
		if i > 0 && r.Phase <= ts.Phases[i-1].Phase {
			t.Fatalf("phase labels not increasing: %d then %d", ts.Phases[i-1].Phase, r.Phase)
		}
	}
}

// TestCollectorNilSchedule: baseline routers have no timetable; steps
// carry -1 coordinates and the only window rows are the run totals
// emitted by Flush.
func TestCollectorNilSchedule(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 4)
	ts := &obs.TimeSeries{}
	coll := obs.NewCollector(nil, ts)
	coll.Attach(e)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	if len(ts.Rounds) != 0 || len(ts.Phases) != 0 {
		t.Fatalf("window rows without a schedule before Flush: rounds=%d phases=%d", len(ts.Rounds), len(ts.Phases))
	}
	coll.Flush()
	if len(ts.Rounds) != 1 || len(ts.Phases) != 1 {
		t.Fatalf("Flush should emit exactly one trailing round and phase, got %d and %d", len(ts.Rounds), len(ts.Phases))
	}
	if got := ts.Phases[0]; got.Phase != -1 || got.Round != -1 || len(got.FrameTargets) != 0 {
		t.Errorf("schedule-less phase row carries coordinates: %+v", got)
	}
	if ts.Phases[0].Injected != e.M.Injected || ts.Phases[0].Absorbed != e.M.Absorbed {
		t.Errorf("run-total window: %+v, engine %+v", ts.Phases[0], e.M)
	}
	if len(ts.Steps) != steps {
		t.Errorf("step rows = %d, steps = %d", len(ts.Steps), steps)
	}
	// Flushing again is a no-op.
	coll.Flush()
	if len(ts.Rounds) != 1 || len(ts.Phases) != 1 {
		t.Error("second Flush re-emitted windows")
	}
}

// TestCollectorSF: the same collector serves the store-and-forward
// engine; queue-delay deltas sum to the cumulative metric.
func TestCollectorSF(t *testing.T) {
	p := testProblem(t)
	e := sim.NewSFEngine(p, baselines.NewFIFO(), 4)
	ts := &obs.TimeSeries{}
	coll := obs.NewCollector(nil, ts)
	coll.AttachSF(e)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("SF run did not complete")
	}
	coll.Flush()
	if len(ts.Steps) != steps {
		t.Fatalf("step rows = %d, steps = %d", len(ts.Steps), steps)
	}
	qd := 0
	for i := range ts.Steps {
		qd += ts.Steps[i].QueueDelay
	}
	if qd != e.M.QueueDelay {
		t.Errorf("queue-delay deltas sum to %d, cumulative %d", qd, e.M.QueueDelay)
	}
	if ts.Steps[len(ts.Steps)-1].Active != 0 {
		t.Error("final SF snapshot still active")
	}
}

// TestTimeSeriesEvery: per-step sampling honors Every; round and phase
// rows are unaffected.
func TestTimeSeriesEvery(t *testing.T) {
	p := testProblem(t)
	router, sched := frameSetup(t, p)
	e := sim.NewEngine(p, router, 4)
	all := &obs.TimeSeries{}
	sampled := &obs.TimeSeries{Every: 10}
	coll := obs.NewCollector(sched, all, sampled)
	coll.Attach(e)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	coll.Flush()
	want := (steps + 9) / 10
	if len(sampled.Steps) != want {
		t.Errorf("sampled rows = %d, want %d of %d steps", len(sampled.Steps), want, steps)
	}
	if len(sampled.Rounds) != len(all.Rounds) || len(sampled.Phases) != len(all.Phases) {
		t.Errorf("sampling dropped window rows: %d/%d rounds, %d/%d phases",
			len(sampled.Rounds), len(all.Rounds), len(sampled.Phases), len(all.Phases))
	}
}

// TestLifecycleStories: with a big enough ring, every packet's event
// stream starts with inject and ends with absorb, and the inject/absorb
// counts match the engine's metrics.
func TestLifecycleStories(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 4)
	ring := obs.NewLifecycle(1 << 16)
	ring.Attach(e)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; capacity too small for the test", ring.Dropped())
	}
	first := map[sim.PacketID]sim.EventKind{}
	last := map[sim.PacketID]sim.EventKind{}
	injects, absorbs := 0, 0
	prevStep := 0
	for _, ev := range ring.Events() {
		if ev.Step < prevStep {
			t.Fatalf("events not ordered by step: %v", ev)
		}
		prevStep = ev.Step
		if _, ok := first[ev.Packet]; !ok {
			first[ev.Packet] = ev.Kind
		}
		last[ev.Packet] = ev.Kind
		switch ev.Kind {
		case sim.EventInject:
			injects++
		case sim.EventAbsorb:
			absorbs++
		}
	}
	if injects != e.M.Injected || absorbs != e.M.Absorbed {
		t.Errorf("event counts inject=%d absorb=%d, metrics %d/%d", injects, absorbs, e.M.Injected, e.M.Absorbed)
	}
	for pid, k := range first {
		if k != sim.EventInject {
			t.Errorf("packet %d's first event is %s, want inject", pid, k)
		}
		if last[pid] != sim.EventAbsorb {
			t.Errorf("packet %d's last event is %s, want absorb", pid, last[pid])
		}
	}
}

// TestLifecycleRingWrap: a full ring overwrites oldest-first and
// counts the overwrites.
func TestLifecycleRingWrap(t *testing.T) {
	ring := obs.NewLifecycle(4)
	for i := 0; i < 10; i++ {
		ring.RecordEvent(i, sim.PacketID(i), sim.EventInject, 0)
	}
	if ring.Len() != 4 {
		t.Fatalf("len = %d, want 4", ring.Len())
	}
	if ring.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", ring.Dropped())
	}
	evs := ring.Events()
	for i, ev := range evs {
		if ev.Step != 6+i {
			t.Fatalf("event %d has step %d, want %d (oldest-first after wrap)", i, ev.Step, 6+i)
		}
	}
	// Capacity is clamped to at least 1.
	if tiny := obs.NewLifecycle(0); tiny == nil {
		t.Fatal("nil ring")
	}
}

// TestLifecycleSelect: a packet-ID filter keeps only the chosen
// packets; clearing it records everything again.
func TestLifecycleSelect(t *testing.T) {
	ring := obs.NewLifecycle(64)
	ring.Select(3, 5)
	for pid := sim.PacketID(0); pid < 8; pid++ {
		ring.RecordEvent(0, pid, sim.EventInject, 0)
	}
	for _, ev := range ring.Events() {
		if ev.Packet != 3 && ev.Packet != 5 {
			t.Fatalf("filter leaked packet %d", ev.Packet)
		}
	}
	if ring.Len() != 2 {
		t.Fatalf("len = %d, want 2", ring.Len())
	}
	ring.Select()
	ring.RecordEvent(1, 7, sim.EventAbsorb, 0)
	if ring.Len() != 3 {
		t.Error("cleared filter still rejects")
	}
}

// TestExportShapes: CSV row/column geometry and the JSON document
// shape, round-tripped.
func TestExportShapes(t *testing.T) {
	p := testProblem(t)
	router, sched := frameSetup(t, p)
	e := sim.NewEngine(p, router, 4)
	ts := &obs.TimeSeries{}
	ring := obs.NewLifecycle(1 << 14)
	coll := obs.NewCollector(sched, ts)
	coll.Attach(e)
	ring.Attach(e)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	coll.Flush()

	var b strings.Builder
	if err := obs.WriteCSV(&b, ts.Phases); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != len(ts.Phases)+1 {
		t.Fatalf("csv lines = %d, want %d", len(lines), len(ts.Phases)+1)
	}
	cols := len(strings.Split(lines[0], ","))
	for i, ln := range lines {
		if got := len(strings.Split(ln, ",")); got != cols {
			t.Fatalf("csv line %d has %d columns, header has %d", i, got, cols)
		}
	}
	if !strings.HasPrefix(lines[0], "step,phase,round,active,") || !strings.Contains(lines[0], ",tgt0") {
		t.Errorf("csv header = %q", lines[0])
	}

	var jb strings.Builder
	if err := ts.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Steps  []obs.StepStats `json:"steps"`
		Rounds []obs.StepStats `json:"rounds"`
		Phases []obs.StepStats `json:"phases"`
	}
	if err := json.Unmarshal([]byte(jb.String()), &doc); err != nil {
		t.Fatalf("json round-trip: %v", err)
	}
	if len(doc.Steps) != len(ts.Steps) || len(doc.Phases) != len(ts.Phases) {
		t.Errorf("json doc has %d/%d rows, want %d/%d", len(doc.Steps), len(doc.Phases), len(ts.Steps), len(ts.Phases))
	}
	if doc.Steps[0].Step != ts.Steps[0].Step || doc.Phases[0].Phase != ts.Phases[0].Phase {
		t.Error("json round-trip mangled rows")
	}

	var eb strings.Builder
	if err := ring.WriteCSV(&eb); err != nil {
		t.Fatal(err)
	}
	elines := strings.Split(strings.TrimSpace(eb.String()), "\n")
	if elines[0] != "step,packet,kind,arg" {
		t.Errorf("event csv header = %q", elines[0])
	}
	if len(elines) != ring.Len()+1 {
		t.Errorf("event csv lines = %d, want %d", len(elines), ring.Len()+1)
	}
	if !strings.Contains(eb.String(), ",inject,") || !strings.Contains(eb.String(), ",absorb,") {
		t.Error("event csv lacks named kinds")
	}
}

// TestStepStatsClone: Clone detaches the backings, so a kept row is
// immune to the collector's reuse.
func TestStepStatsClone(t *testing.T) {
	s := obs.StepStats{Phase: 2, FrameTargets: []int{1, 2}}
	s.Occupancy = []int{3, 4}
	c := s.Clone()
	s.Occupancy[0] = 99
	s.FrameTargets[0] = 99
	if c.Occupancy[0] != 3 || c.FrameTargets[0] != 1 {
		t.Errorf("clone shares backings: %+v", c)
	}
}
