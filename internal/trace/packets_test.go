package trace

import (
	"slices"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/sim"
)

func TestPacketTracerAll(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 5)
	tr := NewPacketTracer(1, nil)
	tr.Attach(e)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	rows, stepOf := tr.Series()
	if len(rows) != p.N() {
		t.Fatalf("rows = %d, want %d", len(rows), p.N())
	}
	for i, row := range rows {
		if len(row) != steps {
			t.Fatalf("row %d: %d samples, %d steps", i, len(row), steps)
		}
		// Every packet was absorbed, so its last sample is inactive.
		if row[len(row)-1] != -1 {
			t.Errorf("row %d ends at level %d, want -1", i, row[len(row)-1])
		}
	}
	if stepOf(0) != 0 || stepOf(steps-1) != steps-1 {
		t.Errorf("step mapper: 0 -> %d, %d -> %d", stepOf(0), steps-1, stepOf(steps-1))
	}
}

func TestPacketTracerSubset(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 6)
	tr := NewPacketTracer(2, []sim.PacketID{0, 2})
	tr.Attach(e)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	rows, stepOf := tr.Series()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if want := (steps + 1) / 2; len(rows[0]) != want {
		t.Errorf("samples = %d, want %d", len(rows[0]), want)
	}
	if stepOf(1) != 2 {
		t.Errorf("second sample at step %d, want 2", stepOf(1))
	}
	if NewPacketTracer(0, nil).Every != 1 {
		t.Error("Every not clamped")
	}
}

func TestEdgeLoadRecorder(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 8)
	r := NewEdgeLoadRecorder()
	r.Attach(e)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	// Total traversals equal the engine's move count.
	sum := 0
	for _, v := range r.Total() {
		sum += v
	}
	if sum != e.M.Moves {
		t.Errorf("recorded %d traversals, engine moved %d", sum, e.M.Moves)
	}
	// Forward dominates (greedy deflects rarely on this instance).
	fwd, back := 0, 0
	for i := range r.Forward {
		fwd += r.Forward[i]
		back += r.Backward[i]
	}
	if fwd <= back {
		t.Errorf("forward=%d backward=%d; forward should dominate", fwd, back)
	}
}

// censusProbe keeps the engine's per-step census: the active count and
// the per-level occupancy after each commit.
type censusProbe struct {
	active []int
	levels [][]int
	moves  int
}

func (c *censusProbe) OnStep(_ *sim.Engine, s *sim.StepSnapshot) {
	c.active = append(c.active, s.Active)
	c.levels = append(c.levels, slices.Clone(s.Occupancy))
	c.moves += s.Moves
}

// TestRecorderSamples checks a full packet trace against the engine's
// own census: one sample per step, the traced levels add up to the
// per-level occupancy and the active count of that step, and the last
// step leaves no packet active.
func TestRecorderSamples(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 2)
	tr := NewPacketTracer(1, nil)
	tr.Attach(e)
	c := &censusProbe{}
	e.AttachProbe(c)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	rows, stepOf := tr.Series()
	if len(c.active) != steps {
		t.Fatalf("census: %d snapshots, %d steps", len(c.active), steps)
	}
	for i := 0; i < steps; i++ {
		if stepOf(i) != i {
			t.Fatalf("sample %d taken at step %d", i, stepOf(i))
		}
		perLevel := make([]int, len(c.levels[i]))
		active := 0
		for _, row := range rows {
			if len(row) != steps {
				t.Fatalf("%d samples, %d steps", len(row), steps)
			}
			if l := row[i]; l >= 0 {
				perLevel[l]++
				active++
			}
		}
		if active != c.active[i] {
			t.Fatalf("step %d: traced %d active packets, engine reports %d", i, active, c.active[i])
		}
		if !slices.Equal(perLevel, c.levels[i]) {
			t.Fatalf("step %d: traced per-level census %v, engine reports %v", i, perLevel, c.levels[i])
		}
	}
	if last := c.active[steps-1]; last != 0 {
		t.Errorf("final active = %d", last)
	}
}

// TestRecorderComposes is the regression test for Attach overwriting:
// recorders attached to one engine chain, so two of a kind see the
// complete identical series; and attachments are per-run, so a re-run
// after Reset without re-attaching records nothing new.
func TestRecorderComposes(t *testing.T) {
	p := testProblem(t)
	e := sim.NewEngine(p, baselines.NewGreedy(), 2)
	t1, t2 := NewPacketTracer(1, nil), NewPacketTracer(1, nil)
	l1, l2 := NewEdgeLoadRecorder(), NewEdgeLoadRecorder()
	t1.Attach(e)
	l1.Attach(e)
	t2.Attach(e)
	l2.Attach(e)
	c := &censusProbe{}
	e.AttachProbe(c)
	steps, done := e.Run(100000)
	if !done {
		t.Fatal("run did not complete")
	}
	r1, _ := t1.Series()
	r2, _ := t2.Series()
	for i := range r1 {
		if len(r1[i]) != steps {
			t.Fatalf("first tracer: row %d has %d samples, %d steps; a later attach silenced it", i, len(r1[i]), steps)
		}
		if !slices.Equal(r1[i], r2[i]) {
			t.Fatalf("row %d differs between chained tracers", i)
		}
	}
	load1, load2 := l1.Total(), l2.Total()
	if !slices.Equal(load1, load2) {
		t.Fatal("edge loads differ between chained recorders")
	}
	sum := 0
	for _, n := range load1 {
		sum += n
	}
	if sum != c.moves {
		t.Errorf("edge loads sum to %d traversals, engine reports %d moves", sum, c.moves)
	}

	e.Reset(2)
	if _, done := e.Run(100000); !done {
		t.Fatal("re-run did not complete")
	}
	if r, _ := t1.Series(); len(r[0]) != steps {
		t.Errorf("tracer kept sampling after Reset: %d samples after %d", len(r[0]), steps)
	}
	if again := l1.Total(); !slices.Equal(again, load1) {
		t.Error("edge recorder kept counting after Reset")
	}
}
