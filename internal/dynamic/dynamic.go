// Package dynamic runs continuous-arrival (open-system) hot-potato
// simulations: packets arrive over time at rate lambda per node per
// step rather than as one preselected batch. This is the dynamic
// deflection-routing setting of Broder-Upfal [9] in the paper's
// related work; the static Õ(C+L) result speaks to each batch, and the
// open system exposes the stability threshold — the arrival rate beyond
// which the bufferless network stops keeping up.
//
// The simulator is an explicit state machine (Engine): Run drives it in
// the classic closed λ-loop, while the routing service
// (internal/service) feeds it externally submitted batches via Submit /
// SubmitPath / SubmitRandom and freezes it between steps with Snapshot
// — restored engines resume byte-identically, RNG stream included.
//
// The open system optionally runs degraded: Config.Faults marks edges
// down per step (same purity contract as sim.FaultModel — see
// internal/faults for campaign constructors), blocked packets deflect
// around outages or stall in place when a fault strands them, and
// Config.Retry turns admission losses into a bounded-exponential-
// backoff retry queue so soak runs degrade gracefully instead of
// silently shedding load. Degradation is measured: FaultBlocked,
// FaultStalls, Retried, Dropped and per-window Availability.
package dynamic

import (
	"fmt"

	"hotpotato/internal/graph"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
)

// RetryPolicy is the source-side admission policy for arrivals that
// find their source occupied (or the in-flight cap reached): instead
// of shedding the packet, it re-attempts admission under bounded
// exponential backoff, then drops.
type RetryPolicy struct {
	// MaxAttempts bounds total admission attempts per packet (the
	// initial try plus retries). 0 or 1 disables retry: blocked
	// arrivals are lost immediately, the classic open-system behavior.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, in steps
	// (<= 0 defaults to 1). Attempt k waits min(BaseDelay<<(k-1),
	// MaxDelay) steps.
	BaseDelay int
	// MaxDelay caps the exponential backoff (<= 0 defaults to 64).
	MaxDelay int
}

// enabled reports whether the policy retries at all.
func (rp RetryPolicy) enabled() bool { return rp.MaxAttempts > 1 }

// backoff returns the delay before retry number k (k >= 1).
func (rp RetryPolicy) backoff(k int) int {
	base := rp.BaseDelay
	if base <= 0 {
		base = 1
	}
	maxD := rp.MaxDelay
	if maxD <= 0 {
		maxD = 64
	}
	d := base
	for i := 1; i < k; i++ {
		d <<= 1
		if d >= maxD {
			return maxD
		}
	}
	if d > maxD {
		d = maxD
	}
	return d
}

// Config parameterizes an open-system run.
type Config struct {
	// Lambda is the per-node per-step arrival probability at every
	// eligible source node (0 disables endogenous arrivals — the pure
	// service mode, where all traffic comes from Submit*).
	Lambda float64
	// Steps is the simulated horizon. Run requires >= 1; NewEngine also
	// accepts 0 for an unbounded (service-driven) engine.
	Steps int
	// Warmup steps are excluded from the reported statistics.
	Warmup int
	// Seed drives arrivals, destinations, path sampling and conflict
	// tie-breaking.
	Seed int64
	// MaxInFlight caps the simultaneously active packets (0 = 4096); a
	// run that hits the cap is saturated.
	MaxInFlight int
	// Faults, when non-nil, marks edges as down per step: a live
	// packet whose requested edge is down loses and deflects among
	// healthy slots, and a packet stranded at a node with no healthy
	// free slot stalls in place for the step. The model must be a pure
	// function of (edge, step) — the sim.FaultModel contract; bind a
	// faults.Campaign for composable outage scenarios. Excluded from
	// JSON (func value): snapshots persist the fault *spec*, not the
	// bound model.
	Faults sim.FaultModel `json:"-"`
	// Retry is the admission retry/backoff policy for blocked
	// arrivals. The zero value disables retry.
	Retry RetryPolicy
	// Window, when > 0, records per-window time series into
	// Result.Windows (deliveries, mean latency, mean in-flight, fault
	// and availability stats per window of that many steps).
	Window int
	// OnWindow, when non-nil (and Window > 0), is called after each
	// window closes with that window's stats and the result so far —
	// the live-export hook for long soak runs (cmd/openload -http).
	// It runs on the simulation goroutine; a slow callback slows the
	// run.
	OnWindow func(w WindowStats, r *Result) `json:"-"`
	// Stop, when non-nil, ends the run early as soon as a receive
	// succeeds (close the channel to fire it): the current partial
	// window is flushed through OnWindow, Result.Interrupted is set,
	// and the statistics cover the executed prefix. The graceful-drain
	// hook for soak processes catching SIGINT/SIGTERM.
	Stop <-chan struct{} `json:"-"`
}

// Result summarizes an open-system run.
type Result struct {
	Cfg Config
	// Offered is the number of packets that arrived (wanted to enter),
	// λ-generated and submitted alike.
	Offered int
	// Admitted is the number injected (source free at arrival or
	// retry); Delivered the number absorbed within the horizon.
	Admitted  int
	Delivered int
	// Retried counts admission re-attempts performed by the retry
	// policy; Dropped counts packets abandoned after exhausting
	// MaxAttempts (plus blocked batch submissions when retry is
	// disabled). Both are 0 when retry is disabled and no batches were
	// submitted.
	Retried int
	Dropped int
	// FaultBlocked counts (packet, step) pairs whose requested edge
	// was down; FaultStalls counts (packet, step) pairs in which an
	// outage left a packet no healthy out-slot and it held in place.
	FaultBlocked int
	FaultStalls  int
	// Latency summarizes absorb-inject over delivered packets
	// (post-warmup injections only).
	Latency stats.Summary
	// AvgInFlight is the time-average number of active packets after
	// warmup.
	AvgInFlight float64
	// PeakInFlight is the maximum active packets at any step.
	PeakInFlight int
	// Deflections counts all deflections over the horizon.
	Deflections int
	// Saturated reports whether the in-flight cap was hit.
	Saturated bool
	// Interrupted reports that Config.Stop fired before the horizon;
	// Steps in derived rates still refers to the configured horizon,
	// ExecutedSteps to the prefix actually simulated.
	Interrupted   bool
	ExecutedSteps int
	// TraceDigest is the FNV-1a digest folded over every delivery
	// (id, destination, inject step, deliver step) — the cheap
	// equality witness for the snapshot/restore and determinism
	// contracts. Stamped by Engine.Finalize.
	TraceDigest uint64
	// Windows holds the per-window time series when Config.Window > 0,
	// oldest first. A run without a horizon (Steps == 0) keeps only its
	// most recent 4096 windows (maxWindows); a run with one keeps all.
	Windows []WindowStats
}

// WindowStats is one slice of the open-system time series. Every field
// is finite by construction: empty windows report 0 means, never
// NaN/Inf (expvar and JSON cannot encode either).
type WindowStats struct {
	// Start is the window's first step.
	Start int
	// Delivered is the number of packets absorbed during the window.
	Delivered int
	// MeanLatency averages the latency of those deliveries (0 if none).
	MeanLatency float64
	// MeanInFlight is the time-average of active packets over the
	// window.
	MeanInFlight float64
	// FaultBlocked, FaultStalls and Dropped are this window's deltas
	// of the corresponding Result counters.
	FaultBlocked int
	FaultStalls  int
	Dropped      int
	// Availability is the mean fraction of healthy edges over the
	// window (1.0 without a fault model).
	Availability float64
}

// Throughput is delivered packets per step (post-warmup measure over
// the whole horizon; for a stable system it approaches the admitted
// rate).
func (r *Result) Throughput() float64 {
	steps := r.ExecutedSteps
	if steps == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(steps)
}

// AdmissionRate is Admitted/Offered (1.0 when sources are always free).
func (r *Result) AdmissionRate() float64 {
	if r.Offered == 0 {
		return 1
	}
	return float64(r.Admitted) / float64(r.Offered)
}

// DropRate is Dropped/Offered — the load the retry policy shed.
func (r *Result) DropRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Offered)
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := fmt.Sprintf("dynamic(λ=%.3f, %d steps): offered=%d admitted=%d delivered=%d thpt=%.3f/step lat p50=%.0f avg-inflight=%.1f sat=%v",
		r.Cfg.Lambda, r.ExecutedSteps, r.Offered, r.Admitted, r.Delivered,
		r.Throughput(), r.Latency.Median, r.AvgInFlight, r.Saturated)
	if r.Cfg.Faults != nil || r.Cfg.Retry.enabled() {
		s += fmt.Sprintf(" blocked=%d stalls=%d retried=%d dropped=%d",
			r.FaultBlocked, r.FaultStalls, r.Retried, r.Dropped)
	}
	if r.Interrupted {
		s += " (interrupted)"
	}
	return s
}

// retryEntry is a blocked arrival waiting in the source-side backoff
// queue. Its destination and path were drawn at the original arrival,
// so retries consume no randomness and the RNG stream stays a pure
// function of the arrival sequence. The path backing is a pooled
// buffer owned by the engine, nil on a unique-path network for a drawn
// path, which the endpoints determine; tenant is the interned id (-1
// for anonymous λ-arrivals).
type retryEntry struct {
	tenant   int32
	src      graph.NodeID
	dst      graph.NodeID
	path     []graph.EdgeID
	attempts int // admission attempts so far (>= 1)
	next     int // earliest step of the next attempt
}

// summarizeLatencies is the single finalization path for the latency
// sample (kept separate so Engine.Finalize and tests share it).
func summarizeLatencies(xs []float64) stats.Summary { return stats.Summarize(xs) }

// Run executes an open-system greedy hot-potato simulation. The router
// is greedy (chase the path head, equal priorities, backward-safe
// deflections) — the right baseline for dynamic traffic, since the
// frame algorithm's frames presuppose a fixed batch.
//
// Runs are deterministic per (Config, Seed): arrivals, path draws and
// tie-breaks come from one sequential RNG consumed in a fixed order,
// and every sweep (sources, live packets, nodes) iterates in ID or
// injection order — never Go map order.
func Run(g *graph.Leveled, cfg Config) (*Result, error) {
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("dynamic: steps must be >= 1, got %d", cfg.Steps)
	}
	e, err := NewEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	for t := 0; t < cfg.Steps; t++ {
		if cfg.Stop != nil {
			interrupted := false
			select {
			case <-cfg.Stop:
				interrupted = true
			default:
			}
			if interrupted {
				e.res.Interrupted = true
				break
			}
		}
		if err := e.Step(); err != nil {
			return nil, err
		}
	}
	return e.Finalize(), nil
}
