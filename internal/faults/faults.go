// Package faults builds deterministic, composable fault-injection
// campaigns for the simulator's engines. A Campaign is a declarative
// description of an outage process — a scheduled link-down window, a
// periodic flap, a Gilbert–Elliott flaky link, a node outage, a
// correlated level-band outage — that binds to a concrete network and
// seed to yield a sim.FaultModel.
//
// Every model produced here honors the engine's fault contract
// (internal/sim/faults.go): it is a pure function of (edge, step),
// with no mutable state. All randomness is counter-based (the
// SplitMix64 finalizer over (seed, edge, window) tuples), so the same
// campaign + seed + network reproduce the same outage trace on every
// run, however often and in whatever order the engine asks — chaos
// experiments stay replayable.
//
// Campaigns overlay with Overlay (an edge is down when any member says
// so), and parse from compact CLI specs with Parse (see spec.go and
// docs/FAULTS.md).
package faults

import (
	"fmt"
	"math"

	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
)

// Campaign is a declarative fault process. Model binds it to a network
// and seed; the returned sim.FaultModel is pure and deterministic in
// (edge, step), per the engine's fault contract. A campaign referring
// to entities the network does not have (an edge or node ID out of
// range, an empty level band) binds to a model that never fires rather
// than erroring — campaigns are reusable across topologies.
type Campaign interface {
	// Name identifies the campaign in reports and specs.
	Name() string
	// Model binds the campaign to a network and seed.
	Model(g *graph.Leveled, seed int64) sim.FaultModel
}

// mix is the SplitMix64 finalizer — the same counter-mode mixer the
// engine's arbitration RNG uses (sim/rng.go).
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hash01 maps a (seed, edge, salt) tuple to a uniform float64 in [0,1).
func hash01(seed int64, e graph.EdgeID, salt uint64) float64 {
	h := mix(uint64(seed) ^ mix(uint64(e)+0x9E3779B97F4A7C15) ^ salt)
	return float64(h>>11) / (1 << 53)
}

// hashN maps a (seed, edge, window, salt) tuple to a uniform uint64.
func hashN(seed int64, e graph.EdgeID, w uint64, salt uint64) uint64 {
	return mix(uint64(seed) ^ mix(uint64(e)+0x9E3779B97F4A7C15) ^ mix(w+salt))
}

// LinkDown takes one specific edge down during the window [From, To).
// The simplest scheduled outage: a cable cut at From, repaired at To.
type LinkDown struct {
	Edge     graph.EdgeID
	From, To int
}

// Name implements Campaign.
func (c LinkDown) Name() string {
	return fmt.Sprintf("linkdown(edge=%d,[%d,%d))", c.Edge, c.From, c.To)
}

// Model implements Campaign.
func (c LinkDown) Model(g *graph.Leveled, _ int64) sim.FaultModel {
	if int(c.Edge) < 0 || int(c.Edge) >= g.NumEdges() || c.To <= c.From {
		return sim.NoFaults
	}
	edge, from, to := c.Edge, c.From, c.To
	return func(e graph.EdgeID, t int) bool {
		return e == edge && t >= from && t < to
	}
}

// Flap is a periodic link-flap process: each edge is independently
// selected with probability Rate (per seed), and every selected edge
// goes down for Down steps out of every Period, at a per-edge phase
// offset derived from the seed — so selected links flap out of sync
// rather than in lockstep.
type Flap struct {
	// Period is the flap cycle length in steps (>= 2).
	Period int
	// Down is the downtime per cycle in steps (clamped to [1, Period-1]
	// so a flapping link is never permanently down).
	Down int
	// Rate is the fraction of edges that flap (0 < Rate <= 1; 1 = all).
	Rate float64
}

// Name implements Campaign.
func (c Flap) Name() string {
	return fmt.Sprintf("flap(period=%d,down=%d,rate=%g)", c.Period, c.Down, c.Rate)
}

// Model implements Campaign.
func (c Flap) Model(_ *graph.Leveled, seed int64) sim.FaultModel {
	period, down, rate := c.Period, c.Down, c.Rate
	if period < 2 || rate <= 0 {
		return sim.NoFaults
	}
	if down < 1 {
		down = 1
	}
	if down >= period {
		down = period - 1
	}
	const selectSalt, phaseSalt = 0xF1A9, 0xF1AB
	return func(e graph.EdgeID, t int) bool {
		if rate < 1 && hash01(seed, e, selectSalt) >= rate {
			return false
		}
		phase := int(hashN(seed, e, 0, phaseSalt) % uint64(period))
		return (t+phase)%period < down
	}
}

// GilbertElliott is a flaky-link process: every edge alternates
// between a good state and a bad (down) burst, with geometric burst
// lengths of mean MeanBurst and a stationary down fraction DownFrac —
// the classic two-state Gilbert–Elliott loss chain, discretized as a
// frame-renewal process so the state at step t is a pure function of
// (edge, t): time is cut into frames of length round(MeanBurst /
// DownFrac); each (edge, frame) pair draws one geometric burst length
// and a uniform burst position from the counter hash, and the edge is
// down exactly inside that burst. Within a frame the burst is one
// contiguous outage (the chain's bad sojourn); across frames bursts
// are independent (the chain's memorylessness at renewal points).
type GilbertElliott struct {
	// DownFrac is the stationary fraction of time an edge is down
	// (0 < DownFrac < 1).
	DownFrac float64
	// MeanBurst is the mean outage burst length in steps (>= 1).
	MeanBurst int
}

// Name implements Campaign.
func (c GilbertElliott) Name() string {
	return fmt.Sprintf("ge(down=%g,burst=%d)", c.DownFrac, c.MeanBurst)
}

// Model implements Campaign.
func (c GilbertElliott) Model(_ *graph.Leveled, seed int64) sim.FaultModel {
	downFrac, meanBurst := c.DownFrac, c.MeanBurst
	if downFrac <= 0 || meanBurst < 1 {
		return sim.NoFaults
	}
	if downFrac >= 1 {
		return func(graph.EdgeID, int) bool { return true }
	}
	frame := int(float64(meanBurst)/downFrac + 0.5)
	if frame < 2 {
		frame = 2
	}
	// Geometric burst lengths via inverse CDF on the counter hash:
	// B = 1 + floor(log(1-u) / log(1-1/mean)), clamped to the frame.
	const lenSalt, posSalt = 0x6E01, 0x6E02
	return func(e graph.EdgeID, t int) bool {
		w := uint64(t/frame) + 1
		u := float64(hashN(seed, e, w, lenSalt)>>11) / (1 << 53)
		burst := geomLen(u, meanBurst)
		if burst >= frame {
			burst = frame - 1
		}
		off := int(hashN(seed, e, w, posSalt) % uint64(frame-burst+1))
		phase := t % frame
		return phase >= off && phase < off+burst
	}
}

// geomLen inverts the geometric CDF: the number of failures until the
// first success of a Bernoulli(1/mean) trial, shifted to support {1,
// 2, ...} with mean ~mean.
func geomLen(u float64, mean int) int {
	if mean <= 1 {
		return 1
	}
	p := 1.0 / float64(mean)
	// 1 + floor(ln(1-u)/ln(1-p)); both logs negative, ratio positive.
	n := 1 + int(math.Log1p(-u)/math.Log1p(-p))
	if n < 1 {
		n = 1
	}
	return n
}

// NodeOutage takes a node out during [From, To): every edge incident
// to Node is down, modeling a router crash. Packets caught at the node
// stall in place (the engine's escape hatch) until repair.
type NodeOutage struct {
	Node     graph.NodeID
	From, To int
}

// Name implements Campaign.
func (c NodeOutage) Name() string {
	return fmt.Sprintf("node(%d,[%d,%d))", c.Node, c.From, c.To)
}

// Model implements Campaign.
func (c NodeOutage) Model(g *graph.Leveled, _ int64) sim.FaultModel {
	if int(c.Node) < 0 || int(c.Node) >= g.NumNodes() || c.To <= c.From {
		return sim.NoFaults
	}
	incident := make([]bool, g.NumEdges())
	n := g.Node(c.Node)
	for _, e := range n.Up {
		incident[e] = true
	}
	for _, e := range n.Down {
		incident[e] = true
	}
	from, to := c.From, c.To
	return func(e graph.EdgeID, t int) bool {
		return t >= from && t < to && incident[e]
	}
}

// LevelBand is a correlated outage: during [From, To), every selected
// edge leaving a level in [Lo, Hi) is down simultaneously — a shared
// power domain or switch-plane failure cutting a band of the network.
// Rate selects the fraction of band edges that participate (per seed);
// Rate >= 1 (or 0, the zero value's convenience default) takes the
// whole band.
type LevelBand struct {
	// Lo and Hi bound the band: an edge from level l to l+1 is in the
	// band when Lo <= l < Hi.
	Lo, Hi   int
	From, To int
	Rate     float64
}

// Name implements Campaign.
func (c LevelBand) Name() string {
	return fmt.Sprintf("band(levels=[%d,%d),[%d,%d),rate=%g)", c.Lo, c.Hi, c.From, c.To, c.Rate)
}

// Model implements Campaign.
func (c LevelBand) Model(g *graph.Leveled, seed int64) sim.FaultModel {
	if c.To <= c.From || c.Hi <= c.Lo {
		return sim.NoFaults
	}
	rate := c.Rate
	if rate <= 0 || rate > 1 {
		rate = 1
	}
	const bandSalt = 0xBA4D
	member := make([]bool, g.NumEdges())
	any := false
	for id := 0; id < g.NumEdges(); id++ {
		l := g.Node(g.Edge(graph.EdgeID(id)).From).Level
		if l >= c.Lo && l < c.Hi && (rate >= 1 || hash01(seed, graph.EdgeID(id), bandSalt) < rate) {
			member[id] = true
			any = true
		}
	}
	if !any {
		return sim.NoFaults
	}
	from, to := c.From, c.To
	return func(e graph.EdgeID, t int) bool {
		return t >= from && t < to && member[e]
	}
}

// Hash is the memoryless per-edge process of sim.HashFaults lifted to
// a campaign: each edge is independently down for whole windows of
// Window steps with probability Rate per (edge, window).
type Hash struct {
	Rate   float64
	Window int
}

// Name implements Campaign.
func (c Hash) Name() string { return fmt.Sprintf("hash(rate=%g,window=%d)", c.Rate, c.Window) }

// Model implements Campaign.
func (c Hash) Model(_ *graph.Leveled, seed int64) sim.FaultModel {
	if c.Rate <= 0 {
		return sim.NoFaults
	}
	return sim.HashFaults(seed, c.Rate, c.Window)
}

// overlay is the Overlay combinator's campaign.
type overlay []Campaign

// Overlay combines campaigns: an edge is down at a step when any
// member campaign says so. Members bind with distinct derived seeds so
// overlapping stochastic campaigns stay independent.
func Overlay(cs ...Campaign) Campaign {
	flat := make(overlay, 0, len(cs))
	for _, c := range cs {
		if c == nil {
			continue
		}
		if o, ok := c.(overlay); ok {
			flat = append(flat, o...)
			continue
		}
		flat = append(flat, c)
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return flat
}

// Name implements Campaign.
func (o overlay) Name() string {
	s := "overlay("
	for i, c := range o {
		if i > 0 {
			s += " + "
		}
		s += c.Name()
	}
	return s + ")"
}

// Model implements Campaign.
func (o overlay) Model(g *graph.Leveled, seed int64) sim.FaultModel {
	models := make([]sim.FaultModel, 0, len(o))
	for i, c := range o {
		// Derive a distinct member seed so two stochastic members never
		// mirror each other's draws.
		ms := int64(mix(uint64(seed) + uint64(i)*0x9E3779B97F4A7C15))
		if m := c.Model(g, ms); m != nil {
			models = append(models, m)
		}
	}
	switch len(models) {
	case 0:
		return sim.NoFaults
	case 1:
		return models[0]
	}
	return sim.ComposeFaults(models...)
}

// Availability returns the fraction of the network's edges that are
// healthy at step t under the model (1.0 for a nil model) — the
// instantaneous degradation gauge exported through the observability
// layer.
func Availability(m sim.FaultModel, g *graph.Leveled, t int) float64 {
	if m == nil || g.NumEdges() == 0 {
		return 1
	}
	down := 0
	for e := 0; e < g.NumEdges(); e++ {
		if m(graph.EdgeID(e), t) {
			down++
		}
	}
	return 1 - float64(down)/float64(g.NumEdges())
}
