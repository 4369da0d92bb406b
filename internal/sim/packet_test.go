package sim

import (
	"strings"
	"testing"

	"hotpotato/internal/graph"
)

// tinyLine builds a 4-node line for unit tests inside the package.
func tinyLine(t *testing.T) *graph.Leveled {
	t.Helper()
	b := graph.NewBuilder("line")
	var prev graph.NodeID = -1
	for l := 0; l < 4; l++ {
		v := b.AddNode(l, "")
		if prev >= 0 {
			b.AddEdge(prev, v)
		}
		prev = v
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPacketAccessors(t *testing.T) {
	g := tinyLine(t)
	p := &Packet{Cur: 1, Dst: 3, PathList: []graph.EdgeID{1, 2}}
	if p.HeadDirection(g) != graph.Forward {
		t.Error("HeadDirection should be forward from From endpoint")
	}
	p2 := &Packet{Cur: 2, Dst: 3, PathList: []graph.EdgeID{1, 2}}
	if p2.HeadDirection(g) != graph.Backward {
		t.Error("HeadDirection should be backward from To endpoint")
	}
}

func TestPacketPathValid(t *testing.T) {
	g := tinyLine(t)
	cases := []struct {
		name string
		p    Packet
		want bool
	}{
		{"valid", Packet{Cur: 1, Dst: 3, PathList: []graph.EdgeID{1, 2}}, true},
		{"empty at dst", Packet{Cur: 3, Dst: 3, PathList: nil}, true},
		{"empty not at dst", Packet{Cur: 2, Dst: 3, PathList: nil}, false},
		{"head not at cur", Packet{Cur: 0, Dst: 3, PathList: []graph.EdgeID{1, 2}}, false},
		{"wrong dst", Packet{Cur: 1, Dst: 0, PathList: []graph.EdgeID{1, 2}}, false},
		{"non-chaining", Packet{Cur: 0, Dst: 3, PathList: []graph.EdgeID{0, 2}}, false},
	}
	for _, c := range cases {
		if got := c.p.PathValid(g); got != c.want {
			t.Errorf("%s: PathValid = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPacketLatencyUnabsorbed(t *testing.T) {
	p := &Packet{InjectTime: 3}
	if p.Latency() != -1 {
		t.Errorf("Latency of unabsorbed = %d", p.Latency())
	}
	p.Absorbed = true
	p.AbsorbTime = 9
	if p.Latency() != 6 {
		t.Errorf("Latency = %d", p.Latency())
	}
}

func TestDeflectKindProperties(t *testing.T) {
	cases := []struct {
		k        DeflectKind
		str      string
		safe     bool
		backward bool
	}{
		{DeflectArrivalReverse, "arrival-reverse", true, true},
		{DeflectSafeBackward, "safe-backward", true, true},
		{DeflectUnsafeBackward, "unsafe-backward", false, true},
		{DeflectForward, "forward", false, false},
	}
	for _, c := range cases {
		if c.k.String() != c.str {
			t.Errorf("String(%d) = %q", c.k, c.k.String())
		}
		if c.k.Safe() != c.safe {
			t.Errorf("Safe(%s) = %v", c.str, c.k.Safe())
		}
		if c.k.Backward() != c.backward {
			t.Errorf("Backward(%s) = %v", c.str, c.k.Backward())
		}
	}
	if !strings.Contains(DeflectKind(9).String(), "DeflectKind") {
		t.Error("unknown kind should render")
	}
}

func TestSlotIndexRoundTrip(t *testing.T) {
	for e := graph.EdgeID(0); e < 10; e++ {
		for _, d := range []graph.Direction{graph.Forward, graph.Backward} {
			s := slotIndex(e, d)
			if slotEdge(s) != e || slotDir(s) != d {
				t.Fatalf("slot round-trip broke at (%d,%v)", e, d)
			}
		}
	}
}
