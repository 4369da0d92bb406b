// Engine and service snapshot formats: the versioned, validated wire
// form of an open-system (internal/dynamic) engine frozen between two
// steps, and the service-level wrapper that adds the topology, fault
// spec and per-tenant quota state. Like the campaign checkpoint format,
// every reader fully re-validates what it decodes — a snapshot is only
// as trustworthy as the process that wrote it, and a restored engine
// must either resume byte-identically or refuse to start.
package persist

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hotpotato/internal/graph"
)

// EngineStateVersion identifies the engine snapshot schema. Version 2
// replaced the unbounded per-delivery latency list (`latencies`) with a
// bounded reservoir plus exact count/sum (`lat_count`, `lat_sum`,
// `lat_samples`, `lat_rng`) — a v1 snapshot grew without bound in
// long-running serve mode and is refused by v2 readers.
const EngineStateVersion = 2

// EngineStateKind tags an engine state object.
const EngineStateKind = "engine-state"

// ServiceSnapshotVersion identifies the service snapshot schema.
const ServiceSnapshotVersion = 1

// ServiceSnapshotKind tags a service snapshot document.
const ServiceSnapshotKind = "service-snapshot"

// NetworkState is the exported name of the network wire form, so the
// service snapshot can embed the same representation WriteNetwork uses.
type NetworkState = networkJSON

// SnapshotNetwork converts a leveled network to its wire form.
func SnapshotNetwork(g *graph.Leveled) NetworkState { return networkToJSON(g) }

// RestoreNetwork rebuilds and re-validates a network from its wire form.
func RestoreNetwork(ns NetworkState) (*graph.Leveled, error) { return networkFromJSON(ns) }

// PacketState is one in-flight packet of a frozen engine.
type PacketState struct {
	ID     int    `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	// Cur is the node the packet sits at; Path the remaining edge
	// sequence toward Dst (head first — may include backtracking edges
	// prepended by deflections).
	Cur  int32   `json:"cur"`
	Dst  int32   `json:"dst"`
	Path []int32 `json:"path"`
	// ArrivalEdge/ArrivalDir describe the hop that brought the packet to
	// Cur (-1 when it has not moved since injection).
	ArrivalEdge int32 `json:"arrival_edge"`
	ArrivalDir  int8  `json:"arrival_dir"`
	Inject      int   `json:"inject"`
}

// RetryState is one blocked arrival waiting in the backoff queue.
type RetryState struct {
	Tenant   string  `json:"tenant,omitempty"`
	Src      int32   `json:"src"`
	Dst      int32   `json:"dst"`
	Path     []int32 `json:"path"`
	Attempts int     `json:"attempts"`
	Next     int     `json:"next"`
}

// PendingState is one submitted-but-not-yet-injected packet request.
// Random entries draw their source, destination and path from the
// engine RNG at injection time; src/dst entries draw only the path;
// explicit-path entries consume no randomness.
type PendingState struct {
	Tenant string  `json:"tenant,omitempty"`
	Random bool    `json:"random,omitempty"`
	Src    int32   `json:"src"`
	Dst    int32   `json:"dst"`
	Path   []int32 `json:"path,omitempty"`
}

// PrevForward (in EngineState) lists the edges a packet traversed
// forward on the previous step — the backward-safe deflection
// predicate. Only the edge set matters (the engine tests non-nil, never
// identity), and delivered packets leave no other trace, so the wire
// form is a plain edge list.

// WindowState is one closed observation window (mirrors
// dynamic.WindowStats).
type WindowState struct {
	Start        int     `json:"start"`
	Delivered    int     `json:"delivered"`
	MeanLatency  float64 `json:"mean_latency"`
	MeanInFlight float64 `json:"mean_inflight"`
	FaultBlocked int     `json:"fault_blocked"`
	FaultStalls  int     `json:"fault_stalls"`
	Dropped      int     `json:"dropped"`
	Availability float64 `json:"availability"`
}

// TenantTotals is the engine-side per-tenant ledger: Submitted counts
// packets enqueued for the tenant, Admitted those injected, Retried the
// re-admission attempts, Dropped the abandoned ones, Delivered the
// absorbed ones.
type TenantTotals struct {
	Submitted int `json:"submitted"`
	Admitted  int `json:"admitted"`
	Retried   int `json:"retried"`
	Dropped   int `json:"dropped"`
	Delivered int `json:"delivered"`
}

// RetryPolicyState mirrors dynamic.RetryPolicy.
type RetryPolicyState struct {
	MaxAttempts int `json:"max_attempts"`
	BaseDelay   int `json:"base_delay"`
	MaxDelay    int `json:"max_delay"`
}

// EngineState freezes an open-system engine between two steps: its
// scalar configuration, RNG state, cumulative counters, window
// accumulators, and every queued or in-flight packet. Restoring it into
// the same network with the same fault model resumes the run
// byte-identically.
type EngineState struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`

	// Scalar configuration (function-valued config — fault model,
	// window callback — must be re-bound by the restorer).
	Lambda      float64          `json:"lambda"`
	Steps       int              `json:"steps"`
	Warmup      int              `json:"warmup"`
	Seed        int64            `json:"seed"`
	MaxInFlight int              `json:"max_inflight"`
	Window      int              `json:"window"`
	Retry       RetryPolicyState `json:"retry"`

	Step   int    `json:"step"`
	RNG    uint64 `json:"rng"`
	NextID int    `json:"next_id"`

	Offered      int  `json:"offered"`
	Admitted     int  `json:"admitted"`
	Delivered    int  `json:"delivered"`
	Retried      int  `json:"retried"`
	Dropped      int  `json:"dropped"`
	FaultBlocked int  `json:"fault_blocked"`
	FaultStalls  int  `json:"fault_stalls"`
	Deflections  int  `json:"deflections"`
	PeakInFlight int  `json:"peak_inflight"`
	Saturated    bool `json:"saturated"`

	InFlightSum     float64 `json:"inflight_sum"`
	InFlightSamples int     `json:"inflight_samples"`
	// LatCount/LatSum are the exact post-warmup delivery count and
	// latency sum; LatSamples is the bounded Algorithm-R reservoir the
	// quantile summary is computed from, and LatRNG the state of its
	// dedicated SplitMix64 stream (kept apart from the trajectory RNG so
	// sampling never perturbs routing).
	LatCount   int       `json:"lat_count"`
	LatSum     float64   `json:"lat_sum"`
	LatSamples []float64 `json:"lat_samples,omitempty"`
	LatRNG     uint64    `json:"lat_rng"`
	// Windows are the closed windows, oldest first. An engine without
	// a horizon (Steps == 0) writes at most its most recent 4096 and
	// restores at most that many, dropping older ones; one with a
	// horizon writes all of them.
	Windows []WindowState `json:"windows,omitempty"`

	// Open-window accumulators (the partial window the snapshot
	// interrupted; the restored engine closes it on schedule).
	WDelivered   int     `json:"w_delivered"`
	WSpan        int     `json:"w_span"`
	WStart       int     `json:"w_start"`
	WLatSum      float64 `json:"w_lat_sum"`
	WFlySum      float64 `json:"w_fly_sum"`
	WAvailSum    float64 `json:"w_avail_sum"`
	WPrevBlocked int     `json:"w_prev_blocked"`
	WPrevStalls  int     `json:"w_prev_stalls"`
	WPrevDropped int     `json:"w_prev_dropped"`

	// Digest is the running FNV-1a trace digest over deliveries.
	Digest uint64 `json:"digest"`

	Packets     []PacketState           `json:"packets,omitempty"`
	RetryQ      []RetryState            `json:"retry_q,omitempty"`
	Pending     []PendingState          `json:"pending,omitempty"`
	PrevForward []int32                 `json:"prev_forward,omitempty"`
	Tenants     map[string]TenantTotals `json:"tenants,omitempty"`
}

// Validate checks the graph-independent invariants of an engine state.
// Graph-dependent checks (node/edge ranges, path contiguity) happen in
// dynamic.Restore, which has the network in hand.
func (s *EngineState) Validate() error {
	if s.Version != EngineStateVersion {
		return fmt.Errorf("persist: unsupported engine state version %d (want %d)", s.Version, EngineStateVersion)
	}
	if s.Kind != EngineStateKind {
		return fmt.Errorf("persist: engine state kind %q (want %q)", s.Kind, EngineStateKind)
	}
	if s.Lambda < 0 || s.Lambda > 1 {
		return fmt.Errorf("persist: engine state lambda %g outside [0,1]", s.Lambda)
	}
	if s.Steps < 0 || s.Warmup < 0 || s.Window < 0 || s.MaxInFlight < 0 {
		return fmt.Errorf("persist: engine state with negative horizon/warmup/window/cap")
	}
	if s.Step < 0 || s.NextID < 0 {
		return fmt.Errorf("persist: engine state step %d / next_id %d negative", s.Step, s.NextID)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"offered", s.Offered}, {"admitted", s.Admitted}, {"delivered", s.Delivered},
		{"retried", s.Retried}, {"dropped", s.Dropped},
		{"fault_blocked", s.FaultBlocked}, {"fault_stalls", s.FaultStalls},
		{"deflections", s.Deflections}, {"peak_inflight", s.PeakInFlight},
		{"inflight_samples", s.InFlightSamples}, {"lat_count", s.LatCount},
		{"w_delivered", s.WDelivered}, {"w_span", s.WSpan}, {"w_start", s.WStart},
	} {
		if c.v < 0 {
			return fmt.Errorf("persist: engine state counter %s = %d negative", c.name, c.v)
		}
	}
	if s.Admitted > s.Offered {
		return fmt.Errorf("persist: engine state admitted %d > offered %d", s.Admitted, s.Offered)
	}
	if s.Delivered > s.Admitted {
		return fmt.Errorf("persist: engine state delivered %d > admitted %d", s.Delivered, s.Admitted)
	}
	if len(s.Packets) != s.Admitted-s.Delivered {
		return fmt.Errorf("persist: engine state holds %d packets but admitted-delivered = %d",
			len(s.Packets), s.Admitted-s.Delivered)
	}
	for _, x := range s.LatSamples {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return fmt.Errorf("persist: engine state latency sample %g not positive finite", x)
		}
	}
	if s.LatCount < len(s.LatSamples) {
		return fmt.Errorf("persist: engine state lat_count %d < %d retained samples", s.LatCount, len(s.LatSamples))
	}
	if math.IsNaN(s.LatSum) || math.IsInf(s.LatSum, 0) || s.LatSum < 0 {
		return fmt.Errorf("persist: engine state lat_sum %g not finite and non-negative", s.LatSum)
	}
	for i, w := range s.Windows {
		if w.Delivered < 0 || !finite(w.MeanLatency) || !finite(w.MeanInFlight) || !finite(w.Availability) {
			return fmt.Errorf("persist: engine state window %d non-finite or negative", i)
		}
	}
	if !finite(s.InFlightSum) || !finite(s.WLatSum) || !finite(s.WFlySum) || !finite(s.WAvailSum) {
		return fmt.Errorf("persist: engine state accumulator not finite")
	}
	seen := make(map[int]bool, len(s.Packets))
	for _, p := range s.Packets {
		if p.ID < 0 || p.ID >= s.NextID {
			return fmt.Errorf("persist: engine state packet id %d outside [0,%d)", p.ID, s.NextID)
		}
		if seen[p.ID] {
			return fmt.Errorf("persist: engine state duplicate packet id %d", p.ID)
		}
		seen[p.ID] = true
		if len(p.Path) == 0 {
			return fmt.Errorf("persist: engine state packet %d with empty path (undelivered packets keep a route)", p.ID)
		}
		if p.ArrivalDir != 0 && p.ArrivalDir != 1 {
			return fmt.Errorf("persist: engine state packet %d arrival dir %d", p.ID, p.ArrivalDir)
		}
	}
	fwd := make(map[int32]bool, len(s.PrevForward))
	for i, ed := range s.PrevForward {
		if ed < 0 {
			return fmt.Errorf("persist: engine state prev_forward %d has negative edge %d", i, ed)
		}
		if fwd[ed] {
			return fmt.Errorf("persist: engine state prev_forward lists edge %d twice", ed)
		}
		fwd[ed] = true
	}
	for i, r := range s.RetryQ {
		if r.Attempts < 1 {
			return fmt.Errorf("persist: engine state retry entry %d with attempts %d < 1", i, r.Attempts)
		}
		if len(r.Path) == 0 {
			return fmt.Errorf("persist: engine state retry entry %d with empty path", i)
		}
	}
	for i, p := range s.Pending {
		if p.Random && (p.Src != -1 || len(p.Path) > 0) {
			return fmt.Errorf("persist: engine state pending entry %d random with explicit src/path", i)
		}
	}
	for name, tt := range s.Tenants {
		if tt.Submitted < 0 || tt.Admitted < 0 || tt.Retried < 0 || tt.Dropped < 0 || tt.Delivered < 0 {
			return fmt.Errorf("persist: engine state tenant %q with negative totals", name)
		}
		if tt.Admitted > tt.Submitted {
			return fmt.Errorf("persist: engine state tenant %q admitted %d > submitted %d", name, tt.Admitted, tt.Submitted)
		}
		if tt.Delivered > tt.Admitted {
			return fmt.Errorf("persist: engine state tenant %q delivered %d > admitted %d", name, tt.Delivered, tt.Admitted)
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// TenantQuotaState is the service-side per-tenant admission state: the
// token-bucket configuration, its remaining tokens at snapshot time,
// and the quota-level ledger (Offered counts submissions, QuotaDropped
// those the bucket rejected before they reached the engine).
type TenantQuotaState struct {
	Name         string  `json:"name"`
	Rate         float64 `json:"rate"`
	Burst        float64 `json:"burst"`
	Tokens       float64 `json:"tokens"`
	Offered      int     `json:"offered"`
	QuotaDropped int     `json:"quota_dropped"`
}

// TopologyState is one served topology: its network, the fault spec to
// re-bind on restore (parsed via internal/faults), the frozen engine,
// and the tenant quota table (sorted by name for stable serialization).
type TopologyState struct {
	Name      string             `json:"name"`
	Network   NetworkState       `json:"network"`
	FaultSpec string             `json:"fault_spec,omitempty"`
	FaultSeed int64              `json:"fault_seed,omitempty"`
	AutoStep  bool               `json:"auto_step,omitempty"`
	Engine    EngineState        `json:"engine"`
	Tenants   []TenantQuotaState `json:"tenants,omitempty"`
}

// ServiceSnapshot is the whole service frozen at one instant: every
// topology with its engine and tenant state.
type ServiceSnapshot struct {
	Version    int             `json:"version"`
	Kind       string          `json:"kind"`
	Topologies []TopologyState `json:"topologies"`
}

// Validate checks the snapshot's invariants, including each embedded
// engine state.
func (s *ServiceSnapshot) Validate() error {
	if s.Version != ServiceSnapshotVersion {
		return fmt.Errorf("persist: unsupported service snapshot version %d (want %d)", s.Version, ServiceSnapshotVersion)
	}
	if s.Kind != ServiceSnapshotKind {
		return fmt.Errorf("persist: service snapshot kind %q (want %q)", s.Kind, ServiceSnapshotKind)
	}
	seen := make(map[string]bool, len(s.Topologies))
	for i := range s.Topologies {
		tp := &s.Topologies[i]
		if tp.Name == "" {
			return fmt.Errorf("persist: service snapshot topology %d without a name", i)
		}
		if seen[tp.Name] {
			return fmt.Errorf("persist: service snapshot duplicate topology %q", tp.Name)
		}
		seen[tp.Name] = true
		if err := tp.Engine.Validate(); err != nil {
			return fmt.Errorf("topology %q: %w", tp.Name, err)
		}
		tseen := make(map[string]bool, len(tp.Tenants))
		for j, tn := range tp.Tenants {
			if tn.Name == "" {
				return fmt.Errorf("persist: topology %q tenant %d without a name", tp.Name, j)
			}
			if tseen[tn.Name] {
				return fmt.Errorf("persist: topology %q duplicate tenant %q", tp.Name, tn.Name)
			}
			tseen[tn.Name] = true
			if tn.Rate < 0 || tn.Burst < 0 || !finite(tn.Tokens) || tn.Offered < 0 || tn.QuotaDropped < 0 {
				return fmt.Errorf("persist: topology %q tenant %q with invalid quota state", tp.Name, tn.Name)
			}
		}
	}
	return nil
}

// WriteServiceSnapshot serializes a validated snapshot (indented, with
// trailing newline, like the committed-artifact convention).
func WriteServiceSnapshot(w io.Writer, s *ServiceSnapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// ReadServiceSnapshot deserializes and fully re-validates a snapshot.
func ReadServiceSnapshot(r io.Reader) (*ServiceSnapshot, error) {
	var s ServiceSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("persist: decode service snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
