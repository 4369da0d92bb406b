package baselines

import (
	"math/rand"

	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
)

// Priorities used by RandGreedy; excited beats normal, mirroring the
// state-priority technique of Busch-Herlihy-Wattenhofer [11] that the
// paper's algorithm also builds on.
const (
	prioNormal  = 0
	prioExcited = 1
)

// RandGreedy is randomized greedy hot-potato routing: packets chase
// their current paths at normal priority; each step a normal packet
// turns excited with probability Q, and excited packets win all
// conflicts against normal packets (ties among excited packets are
// random). An excited packet that is deflected reverts to normal. This
// is the single-frame ancestor of the paper's algorithm and the
// strongest bufferless baseline here.
type RandGreedy struct {
	// Q is the per-step excitation probability (default 0.05 if 0).
	Q float64

	rng     *rand.Rand
	excited []bool
	// Excitations counts state promotions, for reporting.
	Excitations int
}

// NewRandGreedy returns a randomized-greedy router with excitation
// probability q (q<=0 selects the 0.05 default). The router draws its
// randomness from the engine's seeded source, so runs are reproducible.
func NewRandGreedy(q float64) *RandGreedy {
	if q <= 0 {
		q = 0.05
	}
	return &RandGreedy{Q: q}
}

// Name implements sim.Router.
func (*RandGreedy) Name() string { return "rand-greedy-hp" }

// Init implements sim.Router.
func (r *RandGreedy) Init(e *sim.Engine) {
	r.rng = e.Rng
	r.excited = make([]bool, len(e.Packets))
}

// WantInject implements sim.Router.
func (*RandGreedy) WantInject(int, *sim.Packet) bool { return true }

// InjectStep implements sim.InjectionPlanner (exact: always eligible).
func (*RandGreedy) InjectStep(*sim.Packet) int { return 0 }

// Request implements sim.Router.
func (r *RandGreedy) Request(t int, p *sim.Packet) sim.Request {
	if !r.excited[p.ID] && r.rng.Float64() < r.Q {
		r.excited[p.ID] = true
		r.Excitations++
	}
	prio := int64(prioNormal)
	if r.excited[p.ID] {
		prio = prioExcited
	}
	return headRequest(p, prio)
}

// OnDeflect implements sim.Notifier: deflection demotes to normal.
func (r *RandGreedy) OnDeflect(t int, p *sim.Packet, e graph.EdgeID, kind sim.DeflectKind) {
	r.excited[p.ID] = false
}

// OnAbsorb implements sim.Notifier.
func (*RandGreedy) OnAbsorb(int, *sim.Packet) {}

// EndStep implements sim.Notifier.
func (*RandGreedy) EndStep(int, *sim.Engine) {}
