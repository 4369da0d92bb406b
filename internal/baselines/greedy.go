// Package baselines implements the comparison algorithms the paper
// positions against: greedy hot-potato routing (inject as early as
// possible, always chase the current path, deflect on conflict), a
// randomized-greedy variant with excitation priorities in the spirit of
// Busch-Herlihy-Wattenhofer [11], and store-and-forward schedulers
// including a random-delay scheduler in the spirit of
// Leighton-Maggs-Rao [17].
package baselines

import "hotpotato/internal/sim"

// Greedy is the plain greedy hot-potato router: every packet is
// injected as soon as its source is free, always requests the head of
// its current path, and all packets have equal priority (conflicts are
// resolved arbitrarily by the engine, as the paper permits). Deflected
// packets retrace via the engine's path mechanics. No bound is known
// for this router on general leveled networks; it is the empirical
// baseline.
type Greedy struct{}

// NewGreedy returns a fresh greedy router.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements sim.Router.
func (*Greedy) Name() string { return "greedy-hp" }

// Init implements sim.Router.
func (*Greedy) Init(*sim.Engine) {}

// WantInject implements sim.Router: inject at the first opportunity.
func (*Greedy) WantInject(int, *sim.Packet) bool { return true }

// InjectStep implements sim.InjectionPlanner: every packet is eligible
// from step 0 (the bound is exact — WantInject is always true).
func (*Greedy) InjectStep(*sim.Packet) int { return 0 }

// Request implements sim.Router: chase the head of the current path.
func (r *Greedy) Request(t int, p *sim.Packet) sim.Request {
	return headRequest(p, 0)
}

// headRequest builds the request traversing the packet's path-list head
// away from its current node: for a valid path this is the forward move
// toward the destination; for a just-deflected packet it retraces the
// deflection edge back onto the path. The direction comes from the
// engine-maintained HeadDir, sparing a graph lookup per request.
func headRequest(p *sim.Packet, prio int64) sim.Request {
	return sim.Request{Edge: p.PathList[0], Dir: p.HeadDir, Priority: prio}
}

// OldestFirst is greedy with age-based conflict resolution: the packet
// injected earliest wins ties, the classic starvation-free deflection
// rule (older packets can only be deflected by even older ones, so the
// oldest packet always advances).
type OldestFirst struct{}

// NewOldestFirst returns a fresh oldest-first router.
func NewOldestFirst() *OldestFirst { return &OldestFirst{} }

// Name implements sim.Router.
func (*OldestFirst) Name() string { return "greedy-oldest" }

// Init implements sim.Router.
func (*OldestFirst) Init(*sim.Engine) {}

// WantInject implements sim.Router.
func (*OldestFirst) WantInject(int, *sim.Packet) bool { return true }

// InjectStep implements sim.InjectionPlanner (exact: always eligible).
func (*OldestFirst) InjectStep(*sim.Packet) int { return 0 }

// Request implements sim.Router: priority = packet age (earlier
// injection wins).
func (r *OldestFirst) Request(t int, p *sim.Packet) sim.Request {
	return headRequest(p, int64(-p.InjectTime))
}

// FarthestToGo is greedy with farthest-to-go conflict resolution: the
// packet with the longest remaining path wins ties, a classic
// deflection-routing heuristic (cf. the greedy potential-function
// analyses of Ben-Dor, Halevi and Schuster [5]).
type FarthestToGo struct{}

// NewFarthestToGo returns a fresh farthest-to-go router.
func NewFarthestToGo() *FarthestToGo { return &FarthestToGo{} }

// Name implements sim.Router.
func (*FarthestToGo) Name() string { return "greedy-ftg" }

// Init implements sim.Router.
func (*FarthestToGo) Init(*sim.Engine) {}

// WantInject implements sim.Router.
func (*FarthestToGo) WantInject(int, *sim.Packet) bool { return true }

// InjectStep implements sim.InjectionPlanner (exact: always eligible).
func (*FarthestToGo) InjectStep(*sim.Packet) int { return 0 }

// Request implements sim.Router: priority = remaining path length.
func (r *FarthestToGo) Request(t int, p *sim.Packet) sim.Request {
	return headRequest(p, int64(len(p.PathList)))
}
