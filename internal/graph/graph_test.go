package graph

import (
	"strings"
	"testing"
)

// diamond builds the 4-node diamond:
//
//	      1
//	0 <         > 3
//	      2
//
// levels 0,1,1,2.
func diamond(t testing.TB) *Leveled {
	t.Helper()
	b := NewBuilder("diamond")
	v0 := b.AddNode(0, "s")
	v1 := b.AddNode(1, "a")
	v2 := b.AddNode(1, "b")
	v3 := b.AddNode(2, "t")
	b.AddEdge(v0, v1)
	b.AddEdge(v0, v2)
	b.AddEdge(v1, v3)
	b.AddEdge(v2, v3)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Errorf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", g.Depth())
	}
	if w := g.LevelWidth(1); w != 2 {
		t.Errorf("LevelWidth(1) = %d, want 2", w)
	}
	if g.Name() != "diamond" {
		t.Errorf("Name = %q", g.Name())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderReversedEdgeOrder(t *testing.T) {
	b := NewBuilder("rev")
	hi := b.AddNode(1, "")
	lo := b.AddNode(0, "")
	e := b.AddEdge(hi, lo) // given high-to-low; must be canonicalized
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ed := g.Edge(e)
	if g.Node(ed.From).Level != 0 || g.Node(ed.To).Level != 1 {
		t.Errorf("edge not canonicalized: From level %d, To level %d",
			g.Node(ed.From).Level, g.Node(ed.To).Level)
	}
}

func TestBuilderRejectsNonConsecutive(t *testing.T) {
	b := NewBuilder("bad")
	v0 := b.AddNode(0, "")
	b.AddNode(1, "") // level 1 must be populated so Build reaches the edge error
	v2 := b.AddNode(2, "")
	b.AddEdge(v0, v2)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a level-skipping edge")
	}
}

func TestBuilderRejectsEmptyLevel(t *testing.T) {
	b := NewBuilder("gap")
	b.AddNode(0, "")
	b.AddNode(2, "") // nothing at level 1
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a network with an empty level")
	}
}

func TestBuilderRejectsEmpty(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Fatal("Build accepted an empty network")
	}
}

func TestBuilderRejectsNegativeLevel(t *testing.T) {
	b := NewBuilder("neg")
	b.AddNode(-1, "")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a negative level")
	}
}

func TestBuilderRejectsUnknownNode(t *testing.T) {
	b := NewBuilder("unknown")
	v := b.AddNode(0, "")
	b.AddEdge(v, 99)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted an edge to an unknown node")
	}
}

func TestDirectionHelpers(t *testing.T) {
	if Forward.Reverse() != Backward || Backward.Reverse() != Forward {
		t.Error("Reverse broken")
	}
	if Forward.String() != "forward" || Backward.String() != "backward" {
		t.Error("String broken")
	}
}

func TestEndpointsAndDirections(t *testing.T) {
	g := diamond(t)
	e := g.EdgeBetween(0, 1)
	if e == NoEdge {
		t.Fatal("EdgeBetween(0,1) = NoEdge")
	}
	if g.EndpointAt(e, Forward) != 1 || g.EndpointAt(e, Backward) != 0 {
		t.Error("EndpointAt wrong")
	}
	if g.Other(e, 0) != 1 || g.Other(e, 1) != 0 {
		t.Error("Other wrong")
	}
	if g.DirectionFrom(e, 0) != Forward || g.DirectionFrom(e, 1) != Backward {
		t.Error("DirectionFrom wrong")
	}
	if g.EdgeBetween(0, 3) != NoEdge {
		t.Error("EdgeBetween(0,3) should be NoEdge")
	}
	if g.EdgeBetween(1, 0) != e {
		t.Error("EdgeBetween should be orientation-agnostic")
	}
}

func TestOtherPanicsOnNonEndpoint(t *testing.T) {
	g := diamond(t)
	defer func() {
		if recover() == nil {
			t.Error("Other did not panic for non-endpoint")
		}
	}()
	g.Other(g.EdgeBetween(0, 1), 3)
}

func TestFindByLabel(t *testing.T) {
	g := diamond(t)
	if got := g.FindByLabel("b"); got != 2 {
		t.Errorf("FindByLabel(b) = %d, want 2", got)
	}
	if got := g.FindByLabel("zzz"); got != NoNode {
		t.Errorf("FindByLabel(zzz) = %d, want NoNode", got)
	}
}

func TestComputeStats(t *testing.T) {
	g := diamond(t)
	st := g.ComputeStats()
	if st.Nodes != 4 || st.Edges != 4 || st.Depth != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.MaxWidth != 2 || st.MinWidth != 1 {
		t.Errorf("widths = [%d,%d], want [1,2]", st.MinWidth, st.MaxWidth)
	}
	if st.Sources != 1 || st.Sinks != 1 {
		t.Errorf("sources=%d sinks=%d, want 1,1", st.Sources, st.Sinks)
	}
	if st.MaxDegree != 2 {
		t.Errorf("MaxDegree = %d, want 2", st.MaxDegree)
	}
	if st.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestValidatePath(t *testing.T) {
	g := diamond(t)
	e01 := g.EdgeBetween(0, 1)
	e13 := g.EdgeBetween(1, 3)
	e02 := g.EdgeBetween(0, 2)

	if err := g.ValidatePath(Path{e01, e13}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := g.ValidatePath(Path{}); err != nil {
		t.Errorf("empty path rejected: %v", err)
	}
	if err := g.ValidatePath(Path{e01, e02}); err == nil {
		t.Error("non-chaining path accepted")
	}
	if err := g.ValidatePath(Path{99}); err == nil {
		t.Error("unknown edge accepted")
	}
}

func TestPathAccessors(t *testing.T) {
	g := diamond(t)
	p := Path{g.EdgeBetween(0, 1), g.EdgeBetween(1, 3)}
	if g.PathSource(p) != 0 {
		t.Error("PathSource wrong")
	}
	if g.PathDest(p) != 3 {
		t.Error("PathDest wrong")
	}
	nodes := g.PathNodes(p)
	want := []NodeID{0, 1, 3}
	if len(nodes) != len(want) {
		t.Fatalf("PathNodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("PathNodes = %v, want %v", nodes, want)
		}
	}
	if g.PathNodes(nil) != nil {
		t.Error("PathNodes(nil) should be nil")
	}
}

func TestPathContainsLevel(t *testing.T) {
	g := diamond(t)
	p := Path{g.EdgeBetween(0, 2), g.EdgeBetween(2, 3)}
	cases := []struct {
		path         Path
		start, level int
		node         NodeID
		ok           bool
	}{
		{p, 0, 0, 0, true},
		{p, 0, 1, 2, true},
		{p, 0, 2, 3, true},
		{p, 0, 3, NoNode, false},
		{p, 0, -1, NoNode, false},
		// A suffix starts one level up.
		{p[1:], 1, 0, NoNode, false},
		{p[1:], 1, 1, 2, true},
		{p[1:], 1, 2, 3, true},
		{p[1:], 1, 3, NoNode, false},
	}
	for _, c := range cases {
		n, ok := g.PathContainsLevel(c.path, c.start, c.level)
		if ok != c.ok || n != c.node {
			t.Errorf("PathContainsLevel(%v, start=%d, level=%d) = (%d,%v), want (%d,%v)",
				c.path, c.start, c.level, n, ok, c.node, c.ok)
		}
		if ok && g.LevelOf(n) != c.level {
			t.Errorf("PathContainsLevel(%v, start=%d, level=%d) = node %d at level %d",
				c.path, c.start, c.level, n, g.LevelOf(n))
		}
	}
	if _, ok := g.PathContainsLevel(nil, 0, 0); ok {
		t.Error("empty path should contain no level")
	}
}

func TestReachable(t *testing.T) {
	g := diamond(t)
	r := g.Reachable(3)
	for id := NodeID(0); id < 4; id++ {
		if !r[id] {
			t.Errorf("node %d should reach 3", id)
		}
	}
	r1 := g.Reachable(1)
	if !r1[0] || !r1[1] || r1[2] || r1[3] {
		t.Errorf("Reachable(1) = %v", r1)
	}
}

func TestForwardReachableFrom(t *testing.T) {
	g := diamond(t)
	r := g.ForwardReachableFrom(1)
	if !r[1] || !r[3] || r[0] || r[2] {
		t.Errorf("ForwardReachableFrom(1) = %v", r)
	}
	r0 := g.ForwardReachableFrom(0)
	for id := NodeID(0); id < 4; id++ {
		if !r0[id] {
			t.Errorf("node %d should be reachable from 0", id)
		}
	}
}

func TestCountForwardPaths(t *testing.T) {
	g := diamond(t)
	cnt := g.CountForwardPaths(3, 0)
	if cnt[0] != 2 {
		t.Errorf("paths 0->3 = %d, want 2", cnt[0])
	}
	if cnt[1] != 1 || cnt[2] != 1 || cnt[3] != 1 {
		t.Errorf("cnt = %v", cnt)
	}
	// Saturation at cap.
	capped := g.CountForwardPaths(3, 1)
	if capped[0] != 1 {
		t.Errorf("capped paths 0->3 = %d, want 1", capped[0])
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid network")
		}
	}()
	NewBuilder("x").MustBuild()
}

func TestMaxDegree(t *testing.T) {
	g := diamond(t)
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestWriteDOT(t *testing.T) {
	g := diamond(t)
	var b strings.Builder
	if err := g.WriteDOT(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, `digraph "diamond"`) {
		t.Errorf("header = %q", out[:30])
	}
	if strings.Count(out, "->") != g.NumEdges() {
		t.Errorf("edges in DOT = %d, want %d", strings.Count(out, "->"), g.NumEdges())
	}
	if strings.Count(out, "rank=same") != g.Depth()+1 {
		t.Errorf("rank groups = %d, want %d", strings.Count(out, "rank=same"), g.Depth()+1)
	}
	for _, label := range []string{`"s"`, `"a"`, `"b"`, `"t"`} {
		if !strings.Contains(out, label) {
			t.Errorf("missing label %s", label)
		}
	}
}
