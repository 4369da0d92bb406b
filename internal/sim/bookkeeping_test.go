package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/baselines"
	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// bookkeepingCheck verifies, after every step, what the engine keeps
// without a census or a per-packet mirror: Window() and the probe
// snapshot's per-level occupancy against a recount over every active
// packet, each active packet's Level against its node's, and its
// HeadDir, PathList and arrival traversal against a reference path list
// kept by the paper's rule (a traversal of the head pops it, any other
// traversal prepends its edge).
type bookkeepingCheck struct {
	tb   testing.TB
	key  string
	e    *sim.Engine
	ref  map[sim.PacketID][]graph.EdgeID
	prev map[sim.PacketID]graph.NodeID
	// snap copies the probe's last snapshot census and window.
	occ    []int
	lo, hi int
	// longest is the longest path list seen.
	longest int
}

func newBookkeepingCheck(tb testing.TB, key string, e *sim.Engine) *bookkeepingCheck {
	c := &bookkeepingCheck{tb: tb, key: key, e: e,
		ref: map[sim.PacketID][]graph.EdgeID{}, prev: map[sim.PacketID]graph.NodeID{}}
	e.AttachProbe(c)
	e.AddObserver(c.observe)
	return c
}

// OnStep implements sim.Probe.
func (c *bookkeepingCheck) OnStep(_ *sim.Engine, s *sim.StepSnapshot) {
	c.occ = append(c.occ[:0], s.Occupancy...)
	c.lo, c.hi = s.WindowLo, s.WindowHi
}

func (c *bookkeepingCheck) observe(t int, e *sim.Engine) {
	g := e.G
	want := make([]int, g.Depth()+1)
	lo, hi := 0, -1
	for i := range e.Packets {
		p := &e.Packets[i]
		if !p.Active {
			delete(c.ref, p.ID)
			continue
		}
		l := g.LevelOf(p.Cur)
		want[l]++
		if hi < 0 || l < lo {
			lo = l
		}
		hi = max(hi, l)
		c.checkPacket(t, p)
	}
	if wlo, whi := e.Window(); wlo != lo || whi != hi {
		c.tb.Fatalf("%s step %d: Window() = [%d, %d], recount [%d, %d]", c.key, t, wlo, whi, lo, hi)
	}
	if c.lo != lo || c.hi != hi || !slices.Equal(c.occ, want) {
		c.tb.Fatalf("%s step %d: snapshot window [%d, %d] census %v, recount [%d, %d] %v",
			c.key, t, c.lo, c.hi, c.occ, lo, hi, want)
	}
}

// checkPacket advances p's reference path by its traversal this step,
// if it moved, and compares.
func (c *bookkeepingCheck) checkPacket(t int, p *sim.Packet) {
	g := c.e.G
	ref, ok := c.ref[p.ID]
	from := c.prev[p.ID]
	if !ok || p.InjectTime == t {
		ref, from = slices.Clone(p.Preselected), p.Src
	}
	if p.Cur != from {
		if len(ref) > 0 && ref[0] == p.ArrivalEdge {
			ref = ref[1:]
		} else {
			ref = append([]graph.EdgeID{p.ArrivalEdge}, ref...)
		}
	}
	c.ref[p.ID], c.prev[p.ID] = ref, p.Cur
	c.longest = max(c.longest, len(p.PathList))
	switch {
	case int(p.Level) != g.LevelOf(p.Cur):
		c.tb.Fatalf("%s step %d: packet %d Level %d, node %d at level %d", c.key, t, p.ID, p.Level, p.Cur, g.LevelOf(p.Cur))
	case !slices.Equal(p.PathList, ref):
		c.tb.Fatalf("%s step %d: packet %d path list %v, reference %v", c.key, t, p.ID, p.PathList, ref)
	case p.HeadDir != p.HeadDirection(g):
		c.tb.Fatalf("%s step %d: packet %d HeadDir %v, head edge %d leaves %d %v",
			c.key, t, p.ID, p.HeadDir, p.PathList[0], p.Cur, p.HeadDirection(g))
	case p.ArrivalEdge != graph.NoEdge && g.EndpointAt(p.ArrivalEdge, p.ArrivalDir) != p.Cur:
		c.tb.Fatalf("%s step %d: packet %d arrived along edge %d %v, which does not end at %d",
			c.key, t, p.ID, p.ArrivalEdge, p.ArrivalDir, p.Cur)
	}
}

// TestStepBookkeepingMatchesRecount runs the golden matrix (greedy,
// oldest and frame routers, plain and faulted) under the check. The
// faulted runs must stall packets, the one commit that moves nothing.
func TestStepBookkeepingMatchesRecount(t *testing.T) {
	stalls := 0
	for pname, p := range matrixProblems(t) {
		for rname, mk := range goldenRouters(p) {
			seed := goldenSeeds[0]
			faultModels := map[string]sim.FaultModel{"": nil}
			if rname != "frame" {
				faultModels["/faulted"] = goldenCampaign.Model(p.G, seed)
			}
			for suffix, fm := range faultModels {
				key := fmt.Sprintf("%s/%s/seed=%d%s", pname, rname, seed, suffix)
				e := sim.NewEngine(p, mk(), seed)
				e.Faults = fm
				newBookkeepingCheck(t, key, e)
				if _, done := e.Run(100000); !done {
					t.Fatalf("%s: run did not complete", key)
				}
				stalls += e.M.FaultStalls
			}
		}
	}
	if stalls == 0 {
		t.Error("no faulted run stalled a packet")
	}
}

// TestSFLevelMatchesRecount checks the store-and-forward engine's
// Level bookkeeping after every step of the golden matrix's problems.
func TestSFLevelMatchesRecount(t *testing.T) {
	for pname, p := range matrixProblems(t) {
		e := sim.NewSFEngine(p, baselines.NewFIFO(), goldenSeeds[0])
		for !e.Done() {
			if e.Now() > 100000 {
				t.Fatalf("%s: run did not complete", pname)
			}
			e.Step()
			for i := range e.Packets {
				if pk := &e.Packets[i]; pk.Active && int(pk.Level) != p.G.LevelOf(pk.Cur) {
					t.Fatalf("%s step %d: packet %d Level %d, node %d at level %d",
						pname, e.Now()-1, pk.ID, pk.Level, pk.Cur, p.G.LevelOf(pk.Cur))
				}
			}
		}
	}
}

// wanderer walks every packet off its path for the first steps of a
// run, taking a slot other than the head's at each step (forward where
// it can), so its path lists grow by one prepended entry per step; then
// it chases the head like greedy, retracing all of them.
type wanderer struct {
	g     *graph.Leveled
	steps int
}

func (*wanderer) Name() string                     { return "wanderer" }
func (w *wanderer) Init(e *sim.Engine)             { w.g = e.G }
func (*wanderer) WantInject(int, *sim.Packet) bool { return true }
func (w *wanderer) Request(t int, p *sim.Packet) sim.Request {
	if t < w.steps {
		n := w.g.Node(p.Cur)
		for _, ed := range n.Up {
			if ed != p.PathList[0] {
				return sim.Request{Edge: ed, Dir: graph.Forward}
			}
		}
		for _, ed := range n.Down {
			if ed != p.PathList[0] {
				return sim.Request{Edge: ed, Dir: graph.Backward}
			}
		}
	}
	return sim.Request{Edge: p.PathList[0], Dir: p.HeadDir}
}

// TestPathGrowthMatchesRecount forces path lists past the engine's
// injection headroom, so packets move to grown segments, and grown
// segments to larger ones (the arena itself grows while other packets
// are in flight), under the same check.
func TestPathGrowthMatchesRecount(t *testing.T) {
	g, err := topo.Butterfly(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rand.New(rand.NewSource(3)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(p, &wanderer{steps: 60}, 1)
	c := newBookkeepingCheck(t, "wanderer", e)
	if _, done := e.Run(100000); !done {
		t.Fatal("run did not complete")
	}
	// A path that outgrows its home segment moves to one of 2·unit+8
	// entries; outgrowing that one too moves a grown segment again.
	if unit := sim.PathUnitForTest(e); c.longest <= 2*unit+8 {
		t.Fatalf("longest path list %d entries; the run never outgrew a grown segment (home segment %d entries)", c.longest, unit)
	}
}
