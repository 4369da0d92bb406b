// Package service turns the open-system simulator into routing as a
// service: named topologies served concurrently, each backed by one
// dynamic.Engine, with clients submitting packet batches (explicit
// src→dst pairs, explicit paths, or random draws) over the HTTP API in
// http.go.
//
// Concurrency model: every Topology guards its engine, quota buckets
// and last window with a one-slot engine token (a channel of capacity
// 1 that holds the token while nobody owns the engine). All access —
// batch submission, stats reads, manual stepping, snapshots — goes
// through Topology.do, which takes the token, runs a closure on the
// caller's own goroutine and gives the token back. A manual-stepping
// topology runs no goroutine at all. An auto-step topology runs one
// stepper goroutine that takes the token for one step at a time and
// sleeps on a wake channel while the engine is idle; Go hands a
// channel's value to its waiting receivers in FIFO order, so a caller
// waits at most for the step in progress and the callers queued ahead
// of it. There are no locks around engine state, and a closure always
// observes the engine quiescent at a step boundary.
//
// Admission is two-stage. A tenant's token bucket (quota.go) gates
// first: the bucket admits a prefix of each batch and counts the rest
// as QuotaDropped, before the engine ever sees them. What passes the
// bucket enters the engine's pending queue and competes for injection
// under the usual retry/backoff machinery; engine-side drops land in
// the tenant's engine ledger. A tenant's reported Dropped is the sum of
// both stages, so "offered 2× your rate" shows up as a nonzero drop
// rate no matter which stage shed the load.
//
// The whole service freezes into a persist.ServiceSnapshot — network,
// engine state (RNG included), fault spec and quota buckets per
// topology — and Restore thaws it in a fresh process; a restored
// topology continues the exact trajectory the snapshotted one would
// have taken (asserted digest-for-digest in the tests).
package service

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/faults"
	"hotpotato/internal/graph"
	"hotpotato/internal/obs"
	"hotpotato/internal/persist"
	"hotpotato/internal/sim"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrUnknownTopology = errors.New("service: unknown topology")
	ErrUnknownTenant   = errors.New("service: unknown tenant")
	ErrStopped         = errors.New("service: topology stopped")
)

// TopologyConfig declares one served topology.
type TopologyConfig struct {
	Name    string
	Network *graph.Leveled
	// Engine configures the backing engine. Steps must be 0 (service
	// engines are unbounded; the horizon belongs to batch runs), Lambda
	// may be 0 (pure batch service) or positive (endogenous background
	// load on top of batches).
	Engine dynamic.Config
	// FaultSpec, when non-empty, is a docs/FAULTS.md campaign spec
	// bound to the network with FaultSeed. The spec string (not the
	// bound closure) is persisted in snapshots, so restores re-bind the
	// identical pure fault function.
	FaultSpec string
	FaultSeed int64
	// AutoStep lets a stepper goroutine step the engine whenever it has
	// work (or Lambda > 0). With AutoStep false the engine advances only
	// through Advance — the deterministic mode, where the trajectory is
	// a pure function of the submitted batch/advance sequence.
	AutoStep bool
	// Tenants declares who may submit and their admission budgets.
	Tenants []TenantQuota
}

// Options configures a Service.
type Options struct {
	// Now is the quota clock (nil = time.Now). Tests inject a fake.
	Now func() time.Time
}

// Service is a set of named topologies.
type Service struct {
	now   func() time.Time
	mu    sync.Mutex
	topos map[string]*Topology
	order []string
}

// topologySpec is what New and Restore each know about a topology
// before its engine exists.
type topologySpec struct {
	name      string
	g         *graph.Leveled
	faultSpec string
	faultSeed int64
	autoStep  bool
	lambda    float64
}

// Topology serves one network. eng, quotas and lastWindow belong to
// whoever holds the engine token.
type Topology struct {
	topologySpec
	now func() time.Time

	// engine holds the token while no call and no step owns the engine.
	// A holder that stops the topology (halt, a step error, a panic)
	// closes done and keeps the token, so once done is closed the token
	// never comes back.
	engine   chan struct{}
	done     chan struct{}
	wake     chan struct{} // auto-step only: nudges an idle stepper
	stopOnce sync.Once
	stepper  sync.WaitGroup

	eng        *dynamic.Engine
	quotas     map[string]*bucket
	err        error // why the topology stopped; set before done closes
	lastWindow *dynamic.WindowStats
}

// New builds and starts a service. Every auto-step topology's stepper
// goroutine is running when New returns; Close stops them.
func New(cfgs []TopologyConfig, opts Options) (*Service, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("service: no topologies configured")
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Service{now: now, topos: make(map[string]*Topology, len(cfgs))}
	for _, tc := range cfgs {
		if tc.Name == "" {
			s.Close()
			return nil, fmt.Errorf("service: topology without a name")
		}
		if _, dup := s.topos[tc.Name]; dup {
			s.Close()
			return nil, fmt.Errorf("service: duplicate topology %q", tc.Name)
		}
		tp, err := newTopology(tc, now)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("service: topology %q: %w", tc.Name, err)
		}
		s.topos[tc.Name] = tp
		s.order = append(s.order, tc.Name)
	}
	sort.Strings(s.order)
	return s, nil
}

// newTopology builds and starts a topology from its
// configuration.
func newTopology(tc TopologyConfig, now func() time.Time) (*Topology, error) {
	if tc.Network == nil {
		return nil, fmt.Errorf("no network")
	}
	if tc.Engine.Steps != 0 {
		return nil, fmt.Errorf("service engines are unbounded: Steps must be 0, got %d", tc.Engine.Steps)
	}
	quotas := make(map[string]*bucket, len(tc.Tenants))
	for _, q := range tc.Tenants {
		if err := q.validate(); err != nil {
			return nil, err
		}
		if _, dup := quotas[q.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant %q", q.Name)
		}
		quotas[q.Name] = newBucket(q, now())
	}
	spec := topologySpec{
		name: tc.Name, g: tc.Network,
		faultSpec: tc.FaultSpec, faultSeed: tc.FaultSeed,
		autoStep: tc.AutoStep, lambda: tc.Engine.Lambda,
	}
	return startTopology(spec, now, quotas, func(h dynamic.Hooks) (*dynamic.Engine, error) {
		cfg := tc.Engine
		if h.Faults != nil {
			cfg.Faults = h.Faults
		}
		userOW := cfg.OnWindow
		cfg.OnWindow = func(w dynamic.WindowStats, r *dynamic.Result) {
			h.OnWindow(w, r)
			if userOW != nil {
				userOW(w, r)
			}
		}
		return dynamic.NewEngine(tc.Network, cfg)
	})
}

// startTopology is the one constructor behind New and Restore: it binds
// the fault spec, builds the engine through build (which receives the
// fault model and the window hook the topology needs), hands out the
// engine token and, for an auto-step topology, starts the stepper.
func startTopology(spec topologySpec, now func() time.Time, quotas map[string]*bucket,
	build func(dynamic.Hooks) (*dynamic.Engine, error)) (*Topology, error) {
	model, err := bindFaults(spec.faultSpec, spec.g, spec.faultSeed)
	if err != nil {
		return nil, err
	}
	tp := &Topology{topologySpec: spec, now: now, quotas: quotas}
	eng, err := build(dynamic.Hooks{Faults: model, OnWindow: tp.recordWindow})
	if err != nil {
		return nil, err
	}
	tp.eng = eng
	tp.engine = make(chan struct{}, 1)
	tp.engine <- struct{}{}
	tp.done = make(chan struct{})
	if tp.autoStep {
		tp.wake = make(chan struct{}, 1)
		tp.stepper.Add(1)
		go tp.stepLoop()
	}
	return tp, nil
}

// bindFaults parses a campaign spec and binds it to the network.
func bindFaults(spec string, g *graph.Leveled, seed int64) (sim.FaultModel, error) {
	c, err := faults.Parse(spec)
	if err != nil || c == nil {
		return nil, err
	}
	return c.Model(g, seed), nil
}

// recordWindow runs under the engine token (engine OnWindow hook).
func (tp *Topology) recordWindow(w dynamic.WindowStats, _ *dynamic.Result) {
	ww := w
	tp.lastWindow = &ww
}

// stepLoop is an auto-step topology's stepper goroutine: it takes the
// engine token for one step at a time while the engine has work (or
// λ > 0) and otherwise sleeps until a call wakes it. It exits when the
// topology stops.
func (tp *Topology) stepLoop() {
	defer tp.stepper.Done()
	for {
		select {
		case <-tp.engine:
		case <-tp.done:
			return
		}
		if !tp.eng.HasWork() && tp.lambda == 0 {
			tp.engine <- struct{}{}
			select {
			case <-tp.wake:
				continue
			case <-tp.done:
				return
			}
		}
		if err := tp.eng.Step(); err != nil {
			tp.kill(err)
			return
		}
		tp.engine <- struct{}{}
	}
}

// do runs f under the engine token on the caller's goroutine. It
// returns ErrStopped (wrapping the cause, if any) once the topology has
// stopped. A panic in f stops the topology and is re-raised, so the
// token is never lost with the engine in an unknown state.
func (tp *Topology) do(f func()) error {
	select {
	case <-tp.engine:
	case <-tp.done:
		return tp.exitErr()
	}
	defer func() {
		if r := recover(); r != nil {
			tp.kill(fmt.Errorf("panic: %v", r))
			panic(r)
		}
		tp.engine <- struct{}{}
		if tp.wake != nil {
			select {
			case tp.wake <- struct{}{}:
			default: // a wake is already pending
			}
		}
	}()
	f()
	return nil
}

// kill stops the topology for good. The caller must hold the engine
// token, which it keeps.
func (tp *Topology) kill(err error) {
	tp.err = err
	close(tp.done)
}

// exitErr is only called after done is closed (err writes
// happen-before the close).
func (tp *Topology) exitErr() error {
	if tp.err != nil {
		return fmt.Errorf("%w: %v", ErrStopped, tp.err)
	}
	return ErrStopped
}

// halt stops the topology — it waits for the call or step in progress,
// then takes the engine token for good — and waits for the stepper to
// exit.
func (tp *Topology) halt() {
	tp.stopOnce.Do(func() {
		select {
		case <-tp.engine:
			tp.kill(nil)
		case <-tp.done: // already stopped by a step error or a panic
		}
	})
	tp.stepper.Wait()
}

// topology looks a topology up by name.
func (s *Service) topology(name string) *Topology {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topos[name]
}

// Names returns the served topology names, sorted.
func (s *Service) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order...)
}

// Close stops every topology. In-flight packets are abandoned
// unless a Snapshot was taken first — the SIGTERM path is
// Snapshot → persist → Close.
func (s *Service) Close() {
	s.mu.Lock()
	topos := make([]*Topology, 0, len(s.topos))
	for _, tp := range s.topos {
		topos = append(topos, tp)
	}
	s.mu.Unlock()
	for _, tp := range topos {
		tp.halt()
	}
}

// Pair is one src→dst packet request.
type Pair struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// BatchRequest is one tenant's packet batch against a topology. Items
// are offered to the quota bucket in order — Pairs, then Paths, then
// Random — and the bucket admits a prefix.
type BatchRequest struct {
	Tenant string  `json:"tenant"`
	Pairs  []Pair  `json:"pairs,omitempty"`
	Paths  [][]int `json:"paths,omitempty"`
	// Random asks for that many packets with engine-drawn random
	// src/dst (drawn at injection time from the engine RNG, so the run
	// stays deterministic per submission sequence).
	Random int `json:"random,omitempty"`
}

// BatchResult reports what happened to a batch at admission time.
// Admitted means "entered the engine's pending queue"; the engine's own
// injection/retry accounting then takes over (see TenantStats).
type BatchResult struct {
	Topology     string   `json:"topology"`
	Tenant       string   `json:"tenant"`
	Offered      int      `json:"offered"`
	Admitted     int      `json:"admitted"`
	QuotaDropped int      `json:"quota_dropped"`
	Rejected     []string `json:"rejected,omitempty"`
	Step         int      `json:"step"`
}

// SubmitBatch submits a batch to the named topology.
func (s *Service) SubmitBatch(topo string, req BatchRequest) (BatchResult, error) {
	tp := s.topology(topo)
	if tp == nil {
		return BatchResult{}, fmt.Errorf("%w: %q", ErrUnknownTopology, topo)
	}
	return tp.submitBatch(req)
}

// MaxBatchPackets caps one batch's packet count: about what the largest
// accepted HTTP body (8 MiB) of minimal pairs carries. It keeps a
// random batch, which costs a few bytes however large, from queueing
// more than an explicit one could.
const MaxBatchPackets = maxBodyBytes / len(`{"src":0,"dst":0},`)

// MaxAdvanceSteps caps the steps one Advance call runs while it holds
// the engine; longer drives take several calls.
const MaxAdvanceSteps = 1 << 20

func (tp *Topology) submitBatch(req BatchRequest) (BatchResult, error) {
	if req.Random < 0 {
		return BatchResult{}, fmt.Errorf("service: negative random count %d", req.Random)
	}
	if req.Random > MaxBatchPackets {
		return BatchResult{}, fmt.Errorf("service: batch of %d random packets exceeds the limit of %d", req.Random, MaxBatchPackets)
	}
	n := len(req.Pairs) + len(req.Paths) + req.Random
	if n <= 0 {
		return BatchResult{}, fmt.Errorf("service: empty batch")
	}
	if n > MaxBatchPackets {
		return BatchResult{}, fmt.Errorf("service: batch of %d packets exceeds the limit of %d", n, MaxBatchPackets)
	}
	res := BatchResult{Topology: tp.name, Tenant: req.Tenant}
	var reqErr error
	err := tp.do(func() {
		b := tp.quotas[req.Tenant]
		if b == nil {
			reqErr = fmt.Errorf("%w: %q on topology %q", ErrUnknownTenant, req.Tenant, tp.name)
			return
		}
		k := b.take(n, tp.now())
		res.Offered = n
		res.QuotaDropped = n - k
		admit := func(submit func() error) {
			if k <= 0 {
				return
			}
			k--
			if err := submit(); err != nil {
				res.Rejected = append(res.Rejected, err.Error())
			} else {
				res.Admitted++
			}
		}
		for _, p := range req.Pairs {
			p := p
			admit(func() error {
				return tp.eng.Submit(req.Tenant, graph.NodeID(p.Src), graph.NodeID(p.Dst))
			})
		}
		for _, path := range req.Paths {
			edges := make([]graph.EdgeID, len(path))
			for i, e := range path {
				edges[i] = graph.EdgeID(e)
			}
			admit(func() error { return tp.eng.SubmitPath(req.Tenant, edges) })
		}
		if req.Random > 0 && k > 0 {
			m := req.Random
			if m > k {
				m = k
			}
			if err := tp.eng.SubmitRandom(req.Tenant, m); err != nil {
				res.Rejected = append(res.Rejected, err.Error())
			} else {
				res.Admitted += m
			}
		}
		res.Step = tp.eng.StepCount()
	})
	if err != nil {
		return BatchResult{}, err
	}
	return res, reqErr
}

// Advance steps the named topology's engine n times (1 <= n <=
// MaxAdvanceSteps) — the deterministic drive for AutoStep=false
// topologies (it also works on auto-step ones, interleaving with the
// stepper's own steps).
func (s *Service) Advance(topo string, n int) (int, error) {
	tp := s.topology(topo)
	if tp == nil {
		return 0, fmt.Errorf("%w: %q", ErrUnknownTopology, topo)
	}
	if n < 1 || n > MaxAdvanceSteps {
		return 0, fmt.Errorf("service: advance needs 1..%d steps, got %d", MaxAdvanceSteps, n)
	}
	var step int
	var stepErr error
	err := tp.do(func() {
		for i := 0; i < n; i++ {
			if stepErr = tp.eng.Step(); stepErr != nil {
				break
			}
		}
		step = tp.eng.StepCount()
	})
	if err != nil {
		return 0, err
	}
	return step, stepErr
}

// FlushWindows closes the open observation window on every topology
// (the drain path's "no dropped final window" guarantee). Harmless
// no-op on topologies with windowing disabled or nothing accumulated.
func (s *Service) FlushWindows() error {
	s.mu.Lock()
	order := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, name := range order {
		tp := s.topology(name)
		if tp == nil {
			continue
		}
		if err := tp.do(func() { tp.eng.FlushWindow() }); err != nil {
			return fmt.Errorf("service: flush %q: %w", name, err)
		}
	}
	return nil
}

// TenantStats merges a tenant's two admission stages into one ledger.
// Every float is finite by construction (obs.Ratio).
type TenantStats struct {
	// Offered counts every packet the tenant ever submitted (quota
	// ledger, includes quota drops and validation rejects).
	Offered int `json:"offered"`
	// Admitted counts engine injections; Retried the backoff
	// re-attempts; Delivered the absorptions.
	Admitted  int `json:"admitted"`
	Retried   int `json:"retried"`
	Delivered int `json:"delivered"`
	// QuotaDropped fell to the token bucket; EngineDropped exhausted
	// admission retries inside the engine; Dropped is their sum.
	QuotaDropped  int     `json:"quota_dropped"`
	EngineDropped int     `json:"engine_dropped"`
	Dropped       int     `json:"dropped"`
	DropRate      float64 `json:"drop_rate"`
}

// TopologyStats is one topology's externally visible state.
type TopologyStats struct {
	Name       string `json:"name"`
	Step       int    `json:"step"`
	Live       int    `json:"live"`
	QueueDepth int    `json:"queue_depth"`

	Offered      int  `json:"offered"`
	Admitted     int  `json:"admitted"`
	Delivered    int  `json:"delivered"`
	Retried      int  `json:"retried"`
	Dropped      int  `json:"dropped"`
	Deflections  int  `json:"deflections"`
	FaultBlocked int  `json:"fault_blocked"`
	FaultStalls  int  `json:"fault_stalls"`
	Saturated    bool `json:"saturated"`

	Digest     uint64                 `json:"digest"`
	LastWindow *dynamic.WindowStats   `json:"last_window,omitempty"`
	Tenants    map[string]TenantStats `json:"tenants"`
}

// Stats reads the named topology's current state.
func (s *Service) Stats(topo string) (TopologyStats, error) {
	tp := s.topology(topo)
	if tp == nil {
		return TopologyStats{}, fmt.Errorf("%w: %q", ErrUnknownTopology, topo)
	}
	var st TopologyStats
	err := tp.do(func() { st = tp.stats() })
	return st, err
}

// stats runs under the engine token.
func (tp *Topology) stats() TopologyStats {
	r := tp.eng.Peek()
	st := TopologyStats{
		Name: tp.name, Step: tp.eng.StepCount(),
		Live: tp.eng.Live(), QueueDepth: tp.eng.QueueDepth(),
		Offered: r.Offered, Admitted: r.Admitted, Delivered: r.Delivered,
		Retried: r.Retried, Dropped: r.Dropped, Deflections: r.Deflections,
		FaultBlocked: r.FaultBlocked, FaultStalls: r.FaultStalls,
		Saturated: r.Saturated,
		Digest:    tp.eng.Digest(),
		Tenants:   make(map[string]TenantStats, len(tp.quotas)),
	}
	if tp.lastWindow != nil {
		w := *tp.lastWindow
		st.LastWindow = &w
	}
	ledgers := tp.eng.Tenants()
	for name, b := range tp.quotas {
		ts := TenantStats{Offered: b.offered, QuotaDropped: b.quotaDropped}
		if tt := ledgers[name]; tt != nil {
			ts.Admitted = tt.Admitted
			ts.Retried = tt.Retried
			ts.Delivered = tt.Delivered
			ts.EngineDropped = tt.Dropped
		}
		ts.Dropped = ts.QuotaDropped + ts.EngineDropped
		ts.DropRate = obs.Ratio(float64(ts.Dropped), float64(ts.Offered))
		st.Tenants[name] = ts
	}
	return st
}

// AllStats reads every topology, sorted by name. A stopped topology
// reports a zero entry with only its name (the error is not fatal to
// the listing).
func (s *Service) AllStats() []TopologyStats {
	names := s.Names()
	out := make([]TopologyStats, 0, len(names))
	for _, name := range names {
		st, err := s.Stats(name)
		if err != nil {
			st = TopologyStats{Name: name}
		}
		out = append(out, st)
	}
	return out
}

// Snapshot freezes the whole service into the versioned wire form. Each
// topology is captured at a step boundary (the capture runs under its
// engine token); topologies are captured sequentially, so the snapshot is
// per-topology consistent, not a cross-topology instant — topologies
// share no state, so that is the strongest consistency there is.
func (s *Service) Snapshot() (*persist.ServiceSnapshot, error) {
	snap := &persist.ServiceSnapshot{
		Version: persist.ServiceSnapshotVersion,
		Kind:    persist.ServiceSnapshotKind,
	}
	for _, name := range s.Names() {
		tp := s.topology(name)
		if tp == nil {
			continue
		}
		var ts persist.TopologyState
		var innerErr error
		err := tp.do(func() {
			es, err := tp.eng.Snapshot()
			if err != nil {
				innerErr = err
				return
			}
			ts = persist.TopologyState{
				Name:      tp.name,
				Network:   persist.SnapshotNetwork(tp.g),
				FaultSpec: tp.faultSpec,
				FaultSeed: tp.faultSeed,
				AutoStep:  tp.autoStep,
				Engine:    *es,
			}
			tnames := make([]string, 0, len(tp.quotas))
			for n := range tp.quotas {
				tnames = append(tnames, n)
			}
			sort.Strings(tnames)
			for _, n := range tnames {
				ts.Tenants = append(ts.Tenants, tp.quotas[n].state(n))
			}
		})
		if err != nil {
			return nil, fmt.Errorf("service: snapshot %q: %w", name, err)
		}
		if innerErr != nil {
			return nil, fmt.Errorf("service: snapshot %q: %w", name, innerErr)
		}
		snap.Topologies = append(snap.Topologies, ts)
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	return snap, nil
}

// Restore thaws a service snapshot in a fresh process: networks are
// rebuilt and re-validated, fault specs re-bound with their original
// seeds, engines restored RNG-and-all, and quota buckets resume their
// token balances and ledgers (refill clocks restart at now — the dead
// process's wall-clock gap earns no tokens).
func Restore(snap *persist.ServiceSnapshot, opts Options) (*Service, error) {
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	if len(snap.Topologies) == 0 {
		return nil, fmt.Errorf("service: snapshot serves no topologies")
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Service{now: now, topos: make(map[string]*Topology, len(snap.Topologies))}
	for i := range snap.Topologies {
		ts := &snap.Topologies[i]
		g, err := persist.RestoreNetwork(ts.Network)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("service: restore %q: %w", ts.Name, err)
		}
		quotas := make(map[string]*bucket, len(ts.Tenants))
		for _, q := range ts.Tenants {
			quotas[q.Name] = restoreBucket(q, now())
		}
		spec := topologySpec{
			name: ts.Name, g: g,
			faultSpec: ts.FaultSpec, faultSeed: ts.FaultSeed,
			autoStep: ts.AutoStep, lambda: ts.Engine.Lambda,
		}
		tp, err := startTopology(spec, now, quotas, func(h dynamic.Hooks) (*dynamic.Engine, error) {
			return dynamic.Restore(g, &ts.Engine, h)
		})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("service: restore %q: %w", ts.Name, err)
		}
		s.topos[ts.Name] = tp
		s.order = append(s.order, ts.Name)
	}
	sort.Strings(s.order)
	return s, nil
}
