package hotpotato

import (
	"fmt"
	"math"

	"hotpotato/internal/baselines"
	"hotpotato/internal/core"
	"hotpotato/internal/obs"
	"hotpotato/internal/sim"
)

// Options configure a routing run.
type Options struct {
	// Seed drives all randomness (set assignment, excitation,
	// tie-breaking); runs with equal seeds are identical.
	Seed int64
	// MaxSteps caps the run (0 = a generous multiple of the schedule
	// bound for the frame router, or of C+D+L for baselines).
	MaxSteps int
	// CheckInvariants attaches the Ia-If invariant checker (frame
	// router only).
	CheckInvariants bool
	// BufferCap bounds each edge queue for store-and-forward baselines
	// (0 = unbounded). Full buffers exert backpressure; hot-potato
	// baselines ignore it (they have no buffers at all).
	BufferCap int
	// Profile records per-phase progress into Result.Phases (frame
	// router only).
	Profile bool
	// Probes receive the annotated observability series (per step,
	// round and phase under the frame router's schedule; baselines
	// have no timetable, so their steps carry Phase = Round = -1 and
	// the round/phase callbacks fire once at run end covering the
	// whole run).
	Probes []Probe
	// Events, if non-nil, receives packet lifecycle events
	// (inject/deflect/stall/absorb from the engines, excite/restore
	// from the frame router). Use a Lifecycle ring, or any EventSink.
	Events EventSink
	// Faults, if non-nil, runs the routing under this outage campaign,
	// bound to the problem's network with Options.Seed (same seed, same
	// outages). Blocked requests deflect around downed edges; a packet
	// with no healthy out-slot stalls in place for the step. Applies to
	// the frame router and hot-potato baselines; store-and-forward
	// baselines have no fault model and silently ignore it.
	Faults FaultCampaign
}

// boundFaults binds the campaign to the problem's network, nil-safe.
func (o Options) boundFaults(p *Problem) sim.FaultModel {
	if o.Faults == nil {
		return nil
	}
	return o.Faults.Model(p.G, o.Seed)
}

// RouteFrame runs the paper's frame algorithm on the problem.
func RouteFrame(p *Problem, params Params, opt Options) *Result {
	return core.Run(p, params, core.RunOptions{
		Seed:     opt.Seed,
		MaxSteps: opt.MaxSteps,
		Check:    opt.CheckInvariants,
		Profile:  opt.Profile,
		Probes:   opt.Probes,
		Events:   opt.Events,
		Faults:   opt.boundFaults(p),
	})
}

// BaselineKind names a comparison algorithm.
type BaselineKind string

// Available baselines. The Greedy* kinds are bufferless (hot-potato);
// the SF* kinds are store-and-forward with unbounded buffers.
const (
	GreedyHP       BaselineKind = "greedy-hp"
	GreedyFTG      BaselineKind = "greedy-ftg"
	GreedyOldest   BaselineKind = "greedy-oldest"
	RandGreedyHP   BaselineKind = "rand-greedy-hp"
	SFFifo         BaselineKind = "sf-fifo"
	SFRandomDelay  BaselineKind = "sf-randdelay"
	SFFarthestToGo BaselineKind = "sf-farthest"
)

// BaselineResult is a completed baseline run.
type BaselineResult struct {
	Kind  BaselineKind
	Steps int
	Done  bool
	// HP holds engine metrics for hot-potato baselines (nil for SF*).
	HP *Metrics
	// SF holds metrics for store-and-forward baselines (nil for HP*).
	SF *SFMetrics
	// PerPacketLatency lists absorb-inject per packet (-1 if unabsorbed).
	PerPacketLatency []int
}

// String renders a one-line summary.
func (r *BaselineResult) String() string {
	return fmt.Sprintf("%s: steps=%d done=%v", r.Kind, r.Steps, r.Done)
}

// RouteBaseline runs one of the comparison algorithms on the problem.
func RouteBaseline(p *Problem, kind BaselineKind, opt Options) (*BaselineResult, error) {
	maxSteps := opt.MaxSteps
	if maxSteps <= 0 {
		maxSteps = defaultBaselineBudget(p)
	}
	res := &BaselineResult{Kind: kind}
	switch kind {
	case GreedyHP, GreedyFTG, GreedyOldest, RandGreedyHP:
		var r sim.Router
		switch kind {
		case GreedyHP:
			r = baselines.NewGreedy()
		case GreedyFTG:
			r = baselines.NewFarthestToGo()
		case GreedyOldest:
			r = baselines.NewOldestFirst()
		default:
			r = baselines.NewRandGreedy(0.05)
		}
		e := sim.NewEngine(p, r, opt.Seed)
		e.Faults = opt.boundFaults(p)
		coll := attachObs(opt, e.AttachEventSink, func(c *obs.Collector) { c.Attach(e) })
		res.Steps, res.Done = e.Run(maxSteps)
		if coll != nil {
			coll.Flush()
		}
		m := e.M
		res.HP = &m
		res.PerPacketLatency = latencies(e.Packets)
	case SFFifo, SFRandomDelay, SFFarthestToGo:
		var s sim.Scheduler
		switch kind {
		case SFFifo:
			s = baselines.NewFIFO()
		case SFRandomDelay:
			s = baselines.NewRandomDelay(p.C, 1)
		default:
			s = baselines.NewFarthestFirst()
		}
		e := sim.NewSFEngineBuffered(p, s, opt.Seed, opt.BufferCap)
		coll := attachObs(opt, e.AttachEventSink, func(c *obs.Collector) { c.AttachSF(e) })
		res.Steps, res.Done = e.Run(maxSteps)
		if coll != nil {
			coll.Flush()
		}
		m := e.M
		res.SF = &m
		res.PerPacketLatency = latencies(e.Packets)
	default:
		return nil, fmt.Errorf("hotpotato: unknown baseline %q", kind)
	}
	return res, nil
}

// attachObs wires a baseline run's observability: the event sink goes
// straight to the engine, the probes through a schedule-less Collector
// (baselines have no frame timetable). Returns the collector to Flush
// after the run, nil when no probes were given.
func attachObs(opt Options, sink func(sim.EventSink), attach func(*obs.Collector)) *obs.Collector {
	if opt.Events != nil {
		sink(opt.Events)
	}
	if len(opt.Probes) == 0 {
		return nil
	}
	coll := obs.NewCollector(nil, opt.Probes...)
	attach(coll)
	return coll
}

// defaultBaselineBudget returns the default step budget
// 200*(C+D+L)*(1+N/16), computed in int64 and saturated to the
// platform's int range: on large problems (C, D, N in the millions) the
// product overflows int, and a wrapped-negative budget would make
// Run(maxSteps) return instantly as a spurious failure.
func defaultBaselineBudget(p *Problem) int {
	const maxInt = int(^uint(0) >> 1)
	sum := addSat64(addSat64(int64(p.C), int64(p.D)), int64(p.L()))
	scale := 1 + int64(p.N())/16
	if sum > 0 && scale > math.MaxInt64/200/sum {
		return maxInt // the product itself would overflow int64
	}
	b := 200 * sum * scale
	if b < 100000 {
		b = 100000
	}
	if b > int64(maxInt) {
		return maxInt
	}
	return int(b)
}

// addSat64 adds two non-negative int64s, saturating at MaxInt64 (on
// 64-bit platforms C+D+L alone can wrap the accumulator).
func addSat64(a, b int64) int64 {
	if s := a + b; s >= 0 {
		return s
	}
	return math.MaxInt64
}

func latencies(pkts []sim.Packet) []int {
	out := make([]int, len(pkts))
	for i := range pkts {
		out[i] = pkts[i].Latency()
	}
	return out
}

// LowerBound returns the trivial Ω-bound max(C, D) for the problem; any
// routing algorithm, buffered or not, needs at least this many steps.
func LowerBound(p *Problem) int {
	if p.C > p.D {
		return p.C
	}
	return p.D
}
