package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"hotpotato/internal/dynamic"
	"hotpotato/internal/graph"
	"hotpotato/internal/persist"
	"hotpotato/internal/service"
	"hotpotato/internal/topo"
)

// The service workload serves one depth-7 butterfly. Traffic is random
// src/dst batches whose sizes are Pareto(1.4, 16) capped at 512 (heavy
// tailed, as cmd/loadgen draws them). gold is unlimited and sends 70% of
// the batches; free sends 30% under a 20000 packets/s token bucket with
// a burst of 2000, so the quota sheds part of its load.
const (
	svcDim        = 7
	svcTopo       = "bfly"
	paretoAlpha   = 1.4
	paretoXm      = 16.0
	batchCap      = 512
	goldShare     = 0.7
	freeRate      = 20000
	freeBurst     = 2000
	retryAttempts = 8

	// tickLoad is svc-replay's mean offered packets per engine step, near
	// the knee of the open system's stability curve on this network, and
	// tickClock the simulated quota-clock time one tick takes.
	tickLoad  = 120.0
	tickClock = time.Millisecond

	batchesPath = "/v1/topologies/" + svcTopo + "/batches"
	advancePath = "/v1/topologies/" + svcTopo + "/advance"
	statsPath   = "/v1/topologies/" + svcTopo
)

// meanBatch is the mean batch size: E[min(X, cap)] for X ~ Pareto(α, xm)
// is xm + xm/(α-1)·(1 - (xm/cap)^(α-1)); rounding up adds about ½.
var meanBatch = paretoXm + paretoXm/(paretoAlpha-1)*(1-math.Pow(paretoXm/batchCap, paretoAlpha-1)) + 0.5

// traffic draws the service workload's load from one seeded stream.
type traffic struct{ rng *rand.Rand }

func newTraffic(seed int64) *traffic { return &traffic{rand.New(rand.NewSource(seed))} }

// batch draws the next batch's tenant and size.
func (t *traffic) batch() (string, int) {
	tenant := "free"
	if t.rng.Float64() < goldShare {
		tenant = "gold"
	}
	u := t.rng.Float64()
	for u == 0 {
		u = t.rng.Float64()
	}
	n := int(math.Ceil(paretoXm * math.Pow(u, -1/paretoAlpha)))
	return tenant, min(n, batchCap)
}

// batchesPerTick draws a Poisson number of batches with mean
// tickLoad/meanBatch (Knuth's method; the mean is about 2.6).
func (t *traffic) batchesPerTick() int {
	limit := math.Exp(-tickLoad / meanBatch)
	k, p := 0, t.rng.Float64()
	for p > limit {
		k++
		p *= t.rng.Float64()
	}
	return k
}

func engineConfig(seed int64) dynamic.Config {
	return dynamic.Config{Seed: seed, Retry: dynamic.RetryPolicy{MaxAttempts: retryAttempts}}
}

// topologyConfig is the served topology, stepped manually through
// /advance.
func topologyConfig(g *graph.Leveled, seed int64) []service.TopologyConfig {
	return []service.TopologyConfig{{
		Name: svcTopo, Network: g, Engine: engineConfig(seed),
		Tenants: []service.TenantQuota{{Name: "gold"}, {Name: "free", Rate: freeRate, Burst: freeBurst}},
	}}
}

// serviceSetup times one cold construction of the service workload's
// system: the network and a started service, whose engine builds the
// per-destination path-count tables.
func serviceSetup(seed int64, opts service.Options) setupFunc {
	return func(sw *stopwatch) (func(), error) {
		var g *graph.Leveled
		var svc *service.Service
		err := sw.time(layerTopo, "Butterfly", func() (err error) { g, err = topo.Butterfly(svcDim); return })
		if err == nil {
			err = sw.time(layerService, "New", func() (err error) {
				svc, err = service.New(topologyConfig(g, seed), opts)
				return
			})
		}
		if svc == nil {
			return nil, err
		}
		return svc.Close, nil
	}
}

// simClock is svc-replay's quota clock: tick i reads as i·tickClock, so
// admission is a pure function of the tick sequence.
type simClock struct{ ns atomic.Int64 }

func (c *simClock) set(tick int)          { c.ns.Store(int64(tick) * int64(tickClock)) }
func (c *simClock) now() time.Time        { return time.Unix(0, c.ns.Load()) }
func (c *simClock) opts() service.Options { return service.Options{Now: c.now} }

// respWriter is a reusable in-memory http.ResponseWriter: requests go
// straight into the service's handler, never through a socket.
type respWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.header }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// client calls the service's HTTP handler in process.
type client struct {
	h   http.Handler
	tr  *tracer
	w   respWriter
	buf []byte

	requests int64
}

func newClient(h http.Handler, tr *tracer) *client {
	return &client{h: h, tr: tr, w: respWriter{header: make(http.Header)}}
}

// call serves one request and decodes a 200 response into out.
func (c *client) call(method, path, name string, body []byte, req int64, out any) error {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, path, rd)
	if err != nil {
		return err
	}
	clear(c.w.header)
	c.w.code = 0
	c.w.body.Reset()
	c.requests++
	c.tr.begin(layerHTTP, name, req)
	c.h.ServeHTTP(&c.w, hr)
	c.tr.end()
	if c.w.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, c.w.code, bytes.TrimSpace(c.w.body.Bytes()))
	}
	if err := json.Unmarshal(c.w.body.Bytes(), out); err != nil {
		return fmt.Errorf("%s %s: decode response: %w", method, path, err)
	}
	return nil
}

func (c *client) submit(tenant string, n int, req int64) (service.BatchResult, error) {
	c.buf = append(c.buf[:0], `{"tenant":"`...)
	c.buf = append(c.buf, tenant...)
	c.buf = append(c.buf, `","random":`...)
	c.buf = strconv.AppendInt(c.buf, int64(n), 10)
	c.buf = append(c.buf, '}')
	var res service.BatchResult
	err := c.call(http.MethodPost, batchesPath, "POST batches", c.buf, req, &res)
	return res, err
}

func (c *client) advance(req int64) error {
	var out struct{ Step int }
	return c.call(http.MethodPost, advancePath, "POST advance", []byte(`{"steps":1}`), req, &out)
}

func (c *client) stats(req int64) (service.TopologyStats, error) {
	var st service.TopologyStats
	err := c.call(http.MethodGet, statsPath, "GET topology", nil, req, &st)
	return st, err
}

// admissions totals what the client was told at admission time.
type admissions struct{ offered, admitted, quotaDropped int }

func (a *admissions) add(res service.BatchResult) {
	a.offered += res.Offered
	a.admitted += res.Admitted
	a.quotaDropped += res.QuotaDropped
}

// checkLedgers checks the service's conservation laws and reconciles
// its ledgers with what the client was told:
//
//	offered  = quota_dropped + admitted + engine_dropped + queued
//	admitted = delivered + live
func checkLedgers(r *report, st service.TopologyStats, a admissions) {
	var offered, quotaDropped int
	for _, ts := range st.Tenants {
		offered += ts.Offered
		quotaDropped += ts.QuotaDropped
	}
	r.check(offered == quotaDropped+st.Admitted+st.Dropped+st.QueueDepth,
		"ledger: offered %d != quota_dropped %d + admitted %d + engine_dropped %d + queued %d",
		offered, quotaDropped, st.Admitted, st.Dropped, st.QueueDepth)
	r.check(st.Admitted == st.Delivered+st.Live,
		"ledger: admitted %d != delivered %d + live %d", st.Admitted, st.Delivered, st.Live)
	r.check(offered == a.offered && quotaDropped == a.quotaDropped && st.Offered == a.admitted,
		"ledger: service offered/quota-dropped/admitted %d/%d/%d, client was told %d/%d/%d",
		offered, quotaDropped, st.Offered, a.offered, a.quotaDropped, a.admitted)
}

// serviceTotals accumulates the service workload's measured windows.
type serviceTotals struct {
	adm      admissions
	liveSum  float64
	reads    int
	steps    int
	requests int64
}

// read records a stats read's live count when measured.
func (t *serviceTotals) read(w *window, st service.TopologyStats) {
	if w != nil {
		t.liveSum += float64(st.Live)
		t.reads++
	}
}

// windowDone books a measured window's deliveries, steps and requests
// from the stats at its ends.
func (t *serviceTotals) windowDone(w *window, s0, s1 service.TopologyStats, requests int64) {
	if w == nil {
		return
	}
	w.packets = float64(s1.Delivered - s0.Delivered)
	t.steps += s1.Step - s0.Step
	t.requests += requests
}

// finishService reports what the service workload takes from the
// final state: delivery steps from the engine's latency reservoir in a
// final snapshot, its encoded size, the delivered share of what the
// engine accepted, and the per-layer rates; then it checks the ledgers.
func (e *env) finishService(svc *service.Service, t *serviceTotals, wall time.Duration) (service.TopologyStats, error) {
	st, err := svc.Stats(svcTopo)
	if err != nil {
		return st, err
	}
	snap, err := svc.Snapshot()
	if err != nil {
		return st, fmt.Errorf("final snapshot: %w", err)
	}
	var buf bytes.Buffer
	if err := persist.WriteServiceSnapshot(&buf, snap); err != nil {
		return st, fmt.Errorf("final snapshot: %w", err)
	}
	r := e.r
	lat := snap.Topologies[0].Engine.LatSamples
	r.set("deliver_steps_p50", stepQuantile(lat, 0.5))
	r.set("deliver_steps_p99", stepQuantile(lat, 0.99))
	r.set("delivered_ratio", ratio(float64(st.Delivered), float64(st.Delivered+st.Dropped)))
	r.set("persist.snapshot_kb", float64(buf.Len())/1024)
	r.set("dynamic.steps_per_s", float64(t.steps)/wall.Seconds())
	r.set("dynamic.deflections_per_pkt", ratio(float64(st.Deflections), float64(st.Delivered)))
	r.set("dynamic.live_mean", ratio(t.liveSum, float64(t.reads)))
	r.set("service.quota_admit_ratio", ratio(float64(t.adm.admitted), float64(t.adm.offered)))
	r.set("http.requests_per_s", float64(t.requests)/wall.Seconds())
	for _, m := range []string{"core.excited_success_ratio", "sim.makespan_ratio", "sim.steps_per_s",
		"sim.moves_per_s", "sim.useful_move_ratio", "sim.deflections_per_pkt"} {
		r.set(m, 0)
	}
	checkLedgers(r, st, t.adm)
	return st, nil
}

// tickLoop drives svc-replay's ticks on one service entry point: runTick
// submits a tick's batches and advances the engine, read reads the stats
// and restart restarts the service (nil: never). It keeps the schedule
// every entry point must share: a stats read after every statsEvery-th
// tick, a restart after every restartEvery-th.
type tickLoop struct {
	cfg     *runConfig
	gen     *traffic
	clock   simClock
	tick    int
	runTick func(tick int, gen *traffic) error
	read    func(tick int)
	restart func(tick int) error
}

// step runs one tick and whatever follows it. It returns when the tick
// itself ended, the tick's error, and a failed restart's error.
func (l *tickLoop) step(tr *tracer) (tickEnd time.Time, tickErr, restartErr error) {
	t := l.tick
	l.clock.set(t)
	tickErr = tr.span(layerGen, "tick", int64(t), func() error { return l.runTick(t, l.gen) })
	tickEnd = time.Now()
	l.tick++
	if l.tick%l.cfg.statsEvery == 0 {
		l.read(t)
	}
	if l.tick%l.cfg.restartEvery == 0 && l.restart != nil {
		restartErr = l.restart(t)
	}
	return tickEnd, tickErr, restartErr
}

// svcReplay is a closed loop over the HTTP handler with manual stepping.
// Each tick submits a Poisson number of batches, then advances the engine
// one step; the quota clock is simulated, so the whole trajectory is a
// pure function of the seed. Every cfg.statsEvery ticks it reads the
// stats, and every cfg.restartEvery ticks it restarts the service through
// a snapshot (Snapshot, persist encode, decode, Restore) and checks the
// trace digest is unchanged. Traced, it replays the same ticks through
// Service.SubmitBatch/Advance and through dynamic.Engine directly; the
// three digests must agree, and the differences between neighbouring
// entry points give the http and service layers' own cost.
func svcReplay(e *env) error {
	c := e.cfg
	g, err := topo.Butterfly(svcDim)
	if err != nil {
		return err
	}
	loop := &tickLoop{cfg: c, gen: newTraffic(c.seed)}
	svc, err := service.New(topologyConfig(g, c.seed), loop.clock.opts())
	if err != nil {
		return err
	}
	defer func() { svc.Close() }()
	cl := newClient(svc.Handler(), e.tr)

	var tot serviceTotals
	var w *window // the window being measured, nil in the warm-up
	loop.runTick = func(tick int, gen *traffic) error {
		for b := gen.batchesPerTick(); b > 0; b-- {
			tenant, n := gen.batch()
			res, err := cl.submit(tenant, n, int64(tick))
			if err != nil {
				return err
			}
			tot.adm.add(res)
		}
		return cl.advance(int64(tick))
	}
	loop.read = func(tick int) {
		var st service.TopologyStats
		err := e.tr.span(layerGen, "read", int64(tick), func() (err error) {
			st, err = cl.stats(int64(tick))
			return
		})
		tot.read(w, st)
		e.r.op(err)
	}
	loop.restart = func(tick int) error {
		err := e.tr.span(layerGen, "restart", int64(tick), func() (err error) {
			svc, err = e.restart(svc, &loop.clock, int64(tick))
			return
		})
		e.r.op(err)
		cl.h = svc.Handler()
		return err
	}

	firstTick := -1
	var setupClock simClock
	wall, err := e.measure(serviceSetup(c.seed, setupClock.opts()), func(win *window, end time.Time) error {
		w = win
		if w != nil && firstTick < 0 {
			firstTick = loop.tick
		}
		s0, err := svc.Stats(svcTopo)
		if err != nil {
			return err
		}
		requests := cl.requests
		prev := time.Now()
		for {
			t0 := time.Now()
			if !t0.Before(end) {
				break
			}
			t1, tickErr, restartErr := loop.step(e.tr)
			e.r.op(tickErr)
			if restartErr != nil {
				return restartErr
			}
			if w != nil {
				w.add(t1.Sub(t0), t0.Sub(prev))
			}
			prev = time.Now()
		}
		s1, err := svc.Stats(svcTopo)
		if err != nil {
			return err
		}
		tot.windowDone(w, s0, s1, cl.requests-requests)
		return nil
	})
	if err != nil {
		return err
	}
	w = nil
	e.liveHeap()
	st, err := e.finishService(svc, &tot, wall)
	if err != nil || e.tr == nil {
		return err
	}

	// Traced: replay the same ticks through the two inner entry points.
	e.tr.printLayers(os.Stdout, "http entry point")
	self1 := e.tr.self
	e.tr.reset()
	digest2, admitted, err := e.replayService(g, loop.tick, firstTick)
	if err != nil {
		return err
	}
	e.tr.printLayers(os.Stdout, "service entry point")
	self2 := e.tr.self
	e.tr.reset()
	digest3, err := e.replayEngine(g, loop.tick, firstTick, admitted)
	if err != nil {
		return err
	}
	e.tr.printLayers(os.Stdout, "engine entry point")
	self3 := e.tr.self
	e.tr.reset()
	e.r.check(digest2 == st.Digest && digest3 == st.Digest,
		"trace digests differ across entry points: http %#x, service %#x, engine %#x", st.Digest, digest2, digest3)
	var busy [numLayers]time.Duration
	busy[layerGen] = self1[layerGen]
	busy[layerHTTP] = self1[layerHTTP] - self2[layerService]
	busy[layerService] = self2[layerService] - self3[layerDynamic] + self1[layerService]
	busy[layerDynamic] = self3[layerDynamic]
	busy[layerPersist] = self1[layerPersist]
	e.setBusy(busy, wall)
	return nil
}

// restart freezes the service, round-trips the snapshot through the
// persist codec, and resumes from it in a new service. The digest, step
// and delivery count must survive unchanged.
func (e *env) restart(svc *service.Service, clock *simClock, req int64) (*service.Service, error) {
	before, err := svc.Stats(svcTopo)
	if err != nil {
		return svc, err
	}
	var snap *persist.ServiceSnapshot
	var buf bytes.Buffer
	err = e.tr.span(layerService, "Snapshot", req, func() (err error) { snap, err = svc.Snapshot(); return })
	if err == nil {
		err = e.tr.span(layerPersist, "WriteServiceSnapshot", req, func() error { return persist.WriteServiceSnapshot(&buf, snap) })
	}
	if err == nil {
		err = e.tr.span(layerPersist, "ReadServiceSnapshot", req, func() (err error) { snap, err = persist.ReadServiceSnapshot(&buf); return })
	}
	if err != nil {
		return svc, fmt.Errorf("restart at tick %d: %w", req, err)
	}
	e.tr.span(layerService, "Close", req, func() error { svc.Close(); return nil })
	var next *service.Service
	err = e.tr.span(layerService, "Restore", req, func() (err error) { next, err = service.Restore(snap, clock.opts()); return })
	if err != nil {
		return svc, fmt.Errorf("restart at tick %d: %w", req, err)
	}
	after, err := next.Stats(svcTopo)
	if err != nil {
		return next, err
	}
	e.r.check(after.Digest == before.Digest && after.Step == before.Step && after.Delivered == before.Delivered,
		"restart at tick %d: digest/step/delivered %#x/%d/%d before, %#x/%d/%d after", req,
		before.Digest, before.Step, before.Delivered, after.Digest, after.Step, after.Delivered)
	return next, nil
}

// replayService replays ticks 0..ticks-1 through Service.SubmitBatch and
// Advance on a fresh service, tracing from firstTick on. It restarts the
// service at the same ticks as the HTTP pass, untraced: a restart resets
// each quota bucket's refill clock, which forfeits the tokens accrued
// since the bucket's last admission, so admission depends on where the
// restarts fall. It returns the final digest and the admitted count of
// every batch, in order.
func (e *env) replayService(g *graph.Leveled, ticks, firstTick int) (uint64, []int32, error) {
	loop := &tickLoop{cfg: e.cfg, gen: newTraffic(e.cfg.seed)}
	svc, err := service.New(topologyConfig(g, e.cfg.seed), loop.clock.opts())
	if err != nil {
		return 0, nil, err
	}
	defer func() { svc.Close() }()
	var admitted []int32
	loop.runTick = func(tick int, gen *traffic) error {
		for b := gen.batchesPerTick(); b > 0; b-- {
			tenant, n := gen.batch()
			var res service.BatchResult
			err := e.tr.span(layerService, "SubmitBatch", int64(tick), func() (err error) {
				res, err = svc.SubmitBatch(svcTopo, service.BatchRequest{Tenant: tenant, Random: n})
				return
			})
			if err != nil {
				return err
			}
			admitted = append(admitted, int32(res.Admitted))
		}
		return e.tr.span(layerService, "Advance", int64(tick), func() error {
			_, err := svc.Advance(svcTopo, 1)
			return err
		})
	}
	loop.read = func(tick int) {
		e.r.op(e.tr.span(layerService, "Stats", int64(tick), func() error {
			_, err := svc.Stats(svcTopo)
			return err
		}))
	}
	loop.restart = func(tick int) error {
		snap, err := svc.Snapshot()
		if err != nil {
			return err
		}
		svc.Close()
		svc, err = service.Restore(snap, loop.clock.opts())
		return err
	}
	if err := e.replay(loop, ticks, firstTick); err != nil {
		return 0, nil, err
	}
	st, err := svc.Stats(svcTopo)
	return st.Digest, admitted, err
}

// replayEngine replays the same ticks on a bare dynamic.Engine, submitting
// each batch's admitted prefix with SubmitRandom. It returns the digest.
func (e *env) replayEngine(g *graph.Leveled, ticks, firstTick int, admitted []int32) (uint64, error) {
	eng, err := dynamic.NewEngine(g, engineConfig(e.cfg.seed))
	if err != nil {
		return 0, err
	}
	loop := &tickLoop{cfg: e.cfg, gen: newTraffic(e.cfg.seed)}
	loop.runTick = func(tick int, gen *traffic) error {
		for b := gen.batchesPerTick(); b > 0; b-- {
			tenant, _ := gen.batch()
			if len(admitted) == 0 {
				return fmt.Errorf("engine replay ran past the recorded batches at tick %d", tick)
			}
			m := int(admitted[0])
			admitted = admitted[1:]
			if m == 0 {
				continue
			}
			if err := e.tr.span(layerDynamic, "SubmitRandom", int64(tick), func() error {
				return eng.SubmitRandom(tenant, m)
			}); err != nil {
				return err
			}
		}
		return e.tr.span(layerDynamic, "Step", int64(tick), eng.Step)
	}
	loop.read = func(tick int) {
		e.tr.span(layerDynamic, "Peek", int64(tick), func() error { eng.Peek(); return nil })
	}
	if err := e.replay(loop, ticks, firstTick); err != nil {
		return 0, err
	}
	return eng.Digest(), nil
}

// replay runs ticks 0..ticks-1, tracing from firstTick on.
func (e *env) replay(loop *tickLoop, ticks, firstTick int) error {
	for loop.tick < ticks {
		if loop.tick == firstTick {
			e.tr.record(true)
		}
		_, tickErr, restartErr := loop.step(e.tr)
		e.r.op(tickErr)
		if restartErr != nil {
			e.tr.record(false)
			return restartErr
		}
	}
	e.tr.record(false)
	return nil
}
