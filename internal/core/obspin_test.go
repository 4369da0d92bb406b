package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"hotpotato"
	"hotpotato/internal/core"
	"hotpotato/internal/faults"
	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
	"hotpotato/internal/topo"
	"hotpotato/internal/workload"
)

// obsPinCampaign mirrors the sim golden matrix's faulted row: periodic
// flaps plus a short full-network outage, so the pinned event streams
// include blocked requests and fault stalls.
var obsPinCampaign = faults.Overlay(
	faults.Flap{Period: 24, Down: 3, Rate: 0.4},
	faults.LevelBand{Lo: 0, Hi: 1 << 20, From: 10, To: 14},
)

// TestObsOutputPinned pins the observability output byte for byte: the
// SHA-256 of TimeSeries.WriteJSON (per-step, per-round and per-phase
// series) and of Lifecycle.WriteCSV (the packet event stream) for a
// butterfly(5) frame run, plain and faulted, and for greedy runs through
// RouteBaseline. TestGoldenTraces hashes router callbacks and metrics
// only; this pin also fixes the order of events within a step, such as
// the order in which deflections are recorded.
func TestObsOutputPinned(t *testing.T) {
	g, err := topo.Butterfly(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Random(g, rand.New(rand.NewSource(13)), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	params := core.ParamsPractical(p.C, p.L(), p.N(),
		core.PracticalConfig{SetCongestion: 4, FrameSlack: 3, RoundFactor: 3})
	// The greedy runs route a hot spot, so that deflections contend
	// without faults too.
	hot, err := workload.HotSpot(g, rand.New(rand.NewSource(13)), 48, 2)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11

	cases := []struct {
		name string
		run  func(ts *obs.TimeSeries, ring *obs.Lifecycle) bool
		// orderVisible: some step records two deflections, so their
		// order shows in the event stream.
		orderVisible   bool
		series, events string
	}{
		{"frame", func(ts *obs.TimeSeries, ring *obs.Lifecycle) bool {
			return core.Run(p, params, core.RunOptions{Seed: seed, Probes: []obs.Probe{ts}, Events: ring}).Done
		}, false, "6a92e5dfedca816f7dd56d696561fac46083d7823609bf38fad9862b850b540f",
			"9c0ea27d98ce4916978e312697182055c983c6d0acbdeebcd4b4293e150ae9c1"},
		{"frame/faulted", func(ts *obs.TimeSeries, ring *obs.Lifecycle) bool {
			return core.Run(p, params, core.RunOptions{Seed: seed, Probes: []obs.Probe{ts}, Events: ring,
				Faults: obsPinCampaign.Model(p.G, seed)}).Done
		}, true, "a719738383d7e2b596e585ca9521a105c412a0844bebbe968bec3ded5772af14",
			"8bc1a6e7f6b267a11ef654f59aceedffcef05e2d39e7866bab0990f00aae1f9a"},
		{"greedy", func(ts *obs.TimeSeries, ring *obs.Lifecycle) bool {
			return routeBaseline(t, hot, hotpotato.Options{Seed: seed, Probes: []obs.Probe{ts}, Events: ring})
		}, true, "9118c09b8c5f3aa5ce529539723544188aa712953e75b75d504d184be730cf25",
			"f1e6e34438a40b66cb50eafd5b2006b47343d5d8154e8b37a278a926f5b79321"},
		{"greedy/faulted", func(ts *obs.TimeSeries, ring *obs.Lifecycle) bool {
			return routeBaseline(t, hot, hotpotato.Options{Seed: seed, Probes: []obs.Probe{ts}, Events: ring,
				Faults: obsPinCampaign})
		}, true, "054177528e617678be06ba7031e0d76bc9a8b0318477a187b520c6780d57d2c4",
			"ea4f3c3fc15726dda3afd34cd25030ef353f9ee06cd8e24b801d49edf85cdd74"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := &obs.TimeSeries{}
			ring := obs.NewLifecycle(1 << 16)
			done := c.run(ts, ring)
			if ring.Dropped() != 0 {
				t.Fatalf("ring dropped %d events; grow the test ring", ring.Dropped())
			}
			if len(ts.Steps) == 0 || ring.Len() == 0 {
				t.Fatalf("empty output (steps=%d events=%d); the scenario is vacuous", len(ts.Steps), ring.Len())
			}
			if c.orderVisible && !multiDeflectStep(ring.Events()) {
				t.Fatal("no step records two deflections; the pin cannot see their order")
			}
			var series, events bytes.Buffer
			if err := ts.WriteJSON(&series); err != nil {
				t.Fatal(err)
			}
			if err := ring.WriteCSV(&events); err != nil {
				t.Fatal(err)
			}
			gotSeries, gotEvents := sha256Hex(series.Bytes()), sha256Hex(events.Bytes())
			if gotSeries != c.series || gotEvents != c.events {
				t.Errorf("observability output changed (done=%v):\n series %s, want %s\n events %s, want %s",
					done, gotSeries, c.series, gotEvents, c.events)
			}
		})
	}
}

func routeBaseline(t *testing.T, p *workload.Problem, opt hotpotato.Options) bool {
	t.Helper()
	res, err := hotpotato.RouteBaseline(p, hotpotato.GreedyHP, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.Done
}

// multiDeflectStep reports whether some step records two or more
// deflections.
func multiDeflectStep(evs []obs.Event) bool {
	n := map[int]int{}
	for _, ev := range evs {
		if ev.Kind == sim.EventDeflect {
			n[ev.Step]++
			if n[ev.Step] > 1 {
				return true
			}
		}
	}
	return false
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
