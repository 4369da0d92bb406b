package faults

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
)

func ladder(t *testing.T, depth int) *graph.Leveled {
	t.Helper()
	g, err := topo.Ladder(depth)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertPure spot-checks the engine's fault contract: the model's
// answer for a (edge, step) tuple never changes across repeated and
// out-of-order calls.
func assertPure(t *testing.T, g *graph.Leveled, m sim.FaultModel, horizon int) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	type key struct {
		e graph.EdgeID
		t int
	}
	seen := map[key]bool{}
	for i := 0; i < 2000; i++ {
		k := key{graph.EdgeID(rng.Intn(g.NumEdges())), rng.Intn(horizon)}
		v := m(k.e, k.t)
		if prev, ok := seen[k]; ok && prev != v {
			t.Fatalf("model impure at (%d,%d): %v then %v", k.e, k.t, prev, v)
		}
		seen[k] = v
	}
}

func TestLinkDownWindow(t *testing.T) {
	g := ladder(t, 4)
	m := LinkDown{Edge: 2, From: 10, To: 20}.Model(g, 1)
	for _, tc := range []struct {
		e    graph.EdgeID
		t    int
		want bool
	}{
		{2, 9, false}, {2, 10, true}, {2, 19, true}, {2, 20, false}, {3, 15, false},
	} {
		if got := m(tc.e, tc.t); got != tc.want {
			t.Errorf("m(%d,%d) = %v, want %v", tc.e, tc.t, got, tc.want)
		}
	}
	// Out-of-range edge and empty window bind to the never-firing model.
	if m := (LinkDown{Edge: 9999, From: 0, To: 10}).Model(g, 1); m(0, 5) {
		t.Error("out-of-range edge fired")
	}
	if m := (LinkDown{Edge: 1, From: 10, To: 10}).Model(g, 1); m(1, 10) {
		t.Error("empty window fired")
	}
}

func TestFlapPeriodAndRate(t *testing.T) {
	g := ladder(t, 30)
	m := Flap{Period: 20, Down: 5, Rate: 1}.Model(g, 7)
	assertPure(t, g, m, 400)
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		down := 0
		for step := 0; step < 400; step++ {
			if m(e, step) {
				down++
			}
		}
		// Every edge flaps at rate=1: exactly Down out of every Period.
		if down != 400/20*5 {
			t.Fatalf("edge %d down %d/400 steps, want %d", e, down, 400/20*5)
		}
		// And flaps are periodic.
		for step := 0; step < 50; step++ {
			if m(e, step) != m(e, step+20) {
				t.Fatalf("edge %d not periodic at step %d", e, step)
			}
		}
	}
	// Rate selects roughly that fraction of edges.
	sel := Flap{Period: 20, Down: 5, Rate: 0.3}.Model(g, 7)
	flapping := 0
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		for step := 0; step < 20; step++ {
			if sel(e, step) {
				flapping++
				break
			}
		}
	}
	frac := float64(flapping) / float64(g.NumEdges())
	if frac < 0.1 || frac > 0.55 {
		t.Errorf("flapping fraction %.2f, want near 0.3", frac)
	}
	// Phases differ across edges (not lockstep).
	lockstep := true
	for e := graph.EdgeID(1); int(e) < g.NumEdges(); e++ {
		for step := 0; step < 20; step++ {
			if m(0, step) != m(e, step) {
				lockstep = false
			}
		}
	}
	if lockstep {
		t.Error("all edges flap in lockstep; phases are not derived per edge")
	}
}

func TestGilbertElliottStationaryFractionAndBursts(t *testing.T) {
	g := ladder(t, 50)
	const downFrac, meanBurst = 0.1, 6
	m := GilbertElliott{DownFrac: downFrac, MeanBurst: meanBurst}.Model(g, 3)
	assertPure(t, g, m, 5000)
	down, total := 0, 0
	var bursts []int
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		run := 0
		for step := 0; step < 3000; step++ {
			total++
			if m(e, step) {
				down++
				run++
			} else if run > 0 {
				bursts = append(bursts, run)
				run = 0
			}
		}
	}
	frac := float64(down) / float64(total)
	if math.Abs(frac-downFrac) > 0.04 {
		t.Errorf("stationary down fraction %.3f, want near %.2f", frac, downFrac)
	}
	if len(bursts) == 0 {
		t.Fatal("no bursts observed")
	}
	sum := 0
	for _, b := range bursts {
		sum += b
	}
	mean := float64(sum) / float64(len(bursts))
	if mean < 2 || mean > 2*meanBurst {
		t.Errorf("mean burst length %.1f, want near %d", mean, meanBurst)
	}
}

func TestNodeOutageCoversIncidentEdges(t *testing.T) {
	g := ladder(t, 4)
	var v graph.NodeID = g.Level(2)[0]
	m := NodeOutage{Node: v, From: 5, To: 15}.Model(g, 1)
	n := g.Node(v)
	for _, e := range append(append([]graph.EdgeID{}, n.Up...), n.Down...) {
		if !m(e, 10) {
			t.Errorf("incident edge %d not down during outage", e)
		}
		if m(e, 4) || m(e, 15) {
			t.Errorf("incident edge %d down outside window", e)
		}
	}
	// A non-incident edge stays up.
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		ed := g.Edge(e)
		if ed.From != v && ed.To != v && m(e, 10) {
			t.Errorf("non-incident edge %d down", e)
		}
	}
}

func TestLevelBandCorrelatedOutage(t *testing.T) {
	g := ladder(t, 6)
	m := LevelBand{Lo: 2, Hi: 4, From: 10, To: 20}.Model(g, 1)
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		l := g.Node(g.Edge(e).From).Level
		want := l >= 2 && l < 4
		if m(e, 12) != want {
			t.Errorf("edge %d (level %d->%d): down=%v, want %v", e, l, l+1, m(e, 12), want)
		}
		if m(e, 9) || m(e, 20) {
			t.Errorf("edge %d down outside window", e)
		}
	}
	// Empty band binds to the never-firing model.
	if m := (LevelBand{Lo: 40, Hi: 50, From: 0, To: 10}).Model(g, 1); m(0, 5) {
		t.Error("empty band fired")
	}
}

func TestOverlayORsAndDerivesMemberSeeds(t *testing.T) {
	g := ladder(t, 6)
	c := Overlay(
		LinkDown{Edge: 1, From: 0, To: 10},
		LinkDown{Edge: 2, From: 5, To: 15},
		nil,
	)
	m := c.Model(g, 1)
	if !m(1, 3) || !m(2, 7) {
		t.Error("overlay missed a member window")
	}
	if m(1, 12) || m(3, 3) {
		t.Error("overlay invented a fault")
	}
	// Two identical stochastic members must not mirror each other:
	// their overlay fires strictly more often than one member alone.
	one := Hash{Rate: 0.2, Window: 4}
	both := Overlay(one, one).Model(g, 9)
	single := one.Model(g, 9)
	moreDown, singleDown := 0, 0
	for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
		for step := 0; step < 400; step++ {
			if both(e, step) {
				moreDown++
			}
			if single(e, step) {
				singleDown++
			}
		}
	}
	if moreDown <= singleDown {
		t.Errorf("overlay of two independent members fired %d <= single %d; member seeds are not derived",
			moreDown, singleDown)
	}
	if Overlay(one) != Campaign(one) {
		t.Error("single-member overlay should collapse to the member")
	}
}

func TestAvailabilityGauge(t *testing.T) {
	g := ladder(t, 4)
	if a := Availability(nil, g, 0); a != 1 {
		t.Errorf("nil model availability %g, want 1", a)
	}
	m := LevelBand{Lo: 0, Hi: 100, From: 0, To: 10}.Model(g, 1) // everything
	if a := Availability(m, g, 5); a != 0 {
		t.Errorf("full outage availability %g, want 0", a)
	}
	if a := Availability(m, g, 10); a != 1 {
		t.Errorf("post-window availability %g, want 1", a)
	}
	one := LinkDown{Edge: 0, From: 0, To: 10}.Model(g, 1)
	want := 1 - 1/float64(g.NumEdges())
	if a := Availability(one, g, 5); math.Abs(a-want) > 1e-12 {
		t.Errorf("single-edge availability %g, want %g", a, want)
	}
}

func TestParseSpecs(t *testing.T) {
	g := ladder(t, 6)
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"", true},
		{"linkdown:edge=1,from=0,to=10", true},
		{"flap:period=50,down=5,rate=0.2", true},
		{"ge:down=0.05,burst=8", true},
		{"node:node=3,from=0,to=100", true},
		{"band:lo=1,hi=3,from=10,to=20,rate=0.5", true},
		{"hash:rate=0.05,window=8", true},
		{"flap:period=50,down=5+node:node=3,from=0,to=100", true},
		{"bogus:x=1", false},
		{"flap:down=5", false},                  // missing period
		{"linkdown:edge=1,to=10,typo=3", false}, // unknown key
		{"flap:period=abc", false},              // bad int
		{"hash:rate=nope", false},               // bad float
	} {
		c, err := Parse(tc.spec)
		if tc.ok && err != nil {
			t.Errorf("Parse(%q) failed: %v", tc.spec, err)
			continue
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("Parse(%q) accepted", tc.spec)
			}
			continue
		}
		if tc.spec == "" {
			if c != nil {
				t.Error("empty spec returned a campaign")
			}
			continue
		}
		if c == nil {
			t.Errorf("Parse(%q) returned nil campaign", tc.spec)
			continue
		}
		if c.Name() == "" {
			t.Errorf("Parse(%q): empty name", tc.spec)
		}
		m := c.Model(g, 42)
		if m == nil {
			t.Errorf("Parse(%q): nil model", tc.spec)
			continue
		}
		assertPure(t, g, m, 300)
	}
	// Overlay spec ORs its clauses.
	c, err := Parse("linkdown:edge=1,from=0,to=10+linkdown:edge=2,from=20,to=30")
	if err != nil {
		t.Fatal(err)
	}
	m := c.Model(g, 1)
	if !m(1, 5) || !m(2, 25) || m(1, 25) || m(2, 5) {
		t.Error("overlay spec semantics wrong")
	}
}

func TestModelsAreSeedDeterministic(t *testing.T) {
	g := ladder(t, 10)
	for _, c := range []Campaign{
		Flap{Period: 30, Down: 4, Rate: 0.5},
		GilbertElliott{DownFrac: 0.1, MeanBurst: 5},
		LevelBand{Lo: 1, Hi: 5, From: 0, To: 50, Rate: 0.5},
		Hash{Rate: 0.1, Window: 6},
		Overlay(Flap{Period: 30, Down: 4, Rate: 0.5}, Hash{Rate: 0.1, Window: 6}),
	} {
		a, b := c.Model(g, 11), c.Model(g, 11)
		diff := c.Model(g, 12)
		same, differs := true, false
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			for step := 0; step < 200; step++ {
				if a(e, step) != b(e, step) {
					same = false
				}
				if a(e, step) != diff(e, step) {
					differs = true
				}
			}
		}
		if !same {
			t.Errorf("%s: same seed, different model", c.Name())
		}
		if !differs {
			t.Errorf("%s: seed has no effect", c.Name())
		}
	}
}

// TestParseRejectsOutOfRange checks that values a campaign would clamp
// or turn into a silent no-op are errors naming the offending clause,
// also inside an overlay.
func TestParseRejectsOutOfRange(t *testing.T) {
	for _, clause := range []string{
		"flap:period=0",
		"flap:period=-5",
		"flap:period=1",
		"flap:period=10,down=0",
		"flap:period=10,down=10",
		"flap:period=10,rate=0",
		"flap:period=10,rate=1.5",
		"flap:period=10,rate=-0.2",
		"flap:period=10,rate=nan",
		"flap:period=10,rate=inf",
		"ge:down=0",
		"ge:down=1",
		"ge:down=-inf",
		"ge:down=0.1,burst=0",
		"hash:rate=nan",
		"hash:rate=Inf",
		"hash:rate=0",
		"hash:rate=2",
		"hash:rate=0.1,window=0",
		"band:lo=5,hi=1,to=10",
		"band:lo=2,hi=2,to=10",
		"band:lo=-1,hi=2,to=10",
		"band:hi=3,from=10,to=10",
		"band:hi=3,to=10,rate=NaN",
		"node:node=-1,to=10",
		"node:node=3,from=-4,to=10",
		"node:node=3,from=20,to=10",
		"linkdown:edge=-2,to=10",
		"linkdown:edge=1,from=5,to=5",
	} {
		for _, spec := range []string{clause, "flap:period=50,down=5+" + clause} {
			c, err := Parse(spec)
			if err == nil {
				t.Errorf("Parse(%q) accepted %s", spec, c.Name())
				continue
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", clause)) {
				t.Errorf("Parse(%q): error %q does not name clause %q", spec, err, clause)
			}
		}
	}
}
