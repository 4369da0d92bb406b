package faults

import (
	"testing"

	"hotpotato/internal/graph"
	"hotpotato/internal/topo"
)

// FuzzFaultSpec feeds arbitrary strings to Parse. No input may panic,
// and every accepted campaign must bind on butterfly(3) and evaluate
// every edge for 64 steps with a deterministic model.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"linkdown:edge=1,from=0,to=10",
		"flap:period=50,down=5,rate=0.2",
		"ge:down=0.05,burst=8",
		"node:node=3,from=0,to=100",
		"band:lo=1,hi=3,from=10,to=20,rate=0.5",
		"hash:rate=0.05,window=8",
		"flap:period=50,down=5+node:node=3,from=0,to=100",
		"flap:period=0",
		"hash:rate=nan",
		"ge:down=0.999999,burst=9223372036854775807",
	} {
		f.Add(s)
	}
	g, err := topo.Butterfly(3)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil || c == nil {
			return
		}
		if c.Name() == "" {
			t.Fatalf("Parse(%q): empty name", spec)
		}
		a, b := c.Model(g, 7), c.Model(g, 7)
		for e := graph.EdgeID(0); int(e) < g.NumEdges(); e++ {
			for step := 0; step < 64; step++ {
				if a(e, step) != b(e, step) {
					t.Fatalf("Parse(%q): edge %d step %d differs between bindings", spec, e, step)
				}
			}
		}
	})
}
