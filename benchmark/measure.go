package main

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"
)

// window is one slice of the measured phase.
type window struct {
	dur     time.Duration
	opMS    []float64 // latency of each op
	lateMS  []float64 // the generator's lateness before each op
	packets float64   // packets delivered during the window
}

func (w *window) add(op, late time.Duration) {
	w.opMS = append(w.opMS, float64(op)/1e6)
	w.lateMS = append(w.lateMS, float64(late)/1e6)
}

func (w *window) meanOp() float64 {
	if len(w.opMS) == 0 {
		return math.Inf(1)
	}
	sum := 0.0
	for _, x := range w.opMS {
		sum += x
	}
	return sum / float64(len(w.opMS))
}

// The host's speed changes under the benchmark: on a shared virtual
// machine the same code runs up to twice as slow while the neighbours are
// busy, in spells of a few seconds to minutes. Two measures keep the
// timing metrics steady. They are taken from the quiet part of a run: the
// measured phase is cut into short windows, and only the fastest share of
// them (by mean op latency) enters the op latency and packet rate; the
// set-ups are treated the same way. And they are scaled to a nominal host
// speed, measured by a fixed kernel between the windows (hostspeed.go),
// which corrects for the spells that outlast a whole run.
const (
	// windowLen is short, so that the quiet moments inside a busy spell
	// are told apart from it.
	windowLen = 100 * time.Millisecond
	// setupEvery is the number of windows from one timed set-up to the
	// next: one set-up a second.
	setupEvery = 10
	// quietShare is the share of windows, set-ups and kernel runs the
	// timing metrics come from.
	quietShare = 0.1
)

// windows is the number of windows the measured phase is cut into, at
// least one.
func (c *runConfig) windows() int {
	return max(1, int(math.Round(float64(c.measure())/float64(windowLen))))
}

// quiet returns how many of n windows or set-ups count as quiet.
func quiet(n int) int { return max(1, int(math.Round(quietShare*float64(n)))) }

// quietMedian is the median of the quiet share of xs: its lowest values.
func quietMedian(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return median(s[:quiet(len(s))])
}

// setupFunc builds the workload's system once, charging its time to
// layers; the returned cleanup runs outside the timing.
type setupFunc func(sw *stopwatch) (cleanup func(), err error)

// stopwatch accumulates set-up time per layer and, traced, stores a span
// for each timed call.
type stopwatch struct {
	d  [numLayers]time.Duration
	tr *tracer
}

func (s *stopwatch) time(l layer, name string, f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	s.d[l] += d
	s.tr.store(l, name, start, d)
	return err
}

// windowFunc runs the workload's ops until end. w is nil during the
// warm-up, when nothing is recorded.
type windowFunc func(w *window, end time.Time) error

// measure runs the untimed warm-up, then the measured phase as windows
// of windowLen. Before every setupEvery-th window it builds the
// workload's system once from a collected heap and times it, so that the
// set-ups meet the host's spells as the windows do; after every window it
// runs the host kernel. setup_s is the median of the quiet set-ups,
// scaled like the op metrics. The tracer's totals cover the windows only.
// measure sets setup_s and the op metrics, and returns the total
// measured time.
func (e *env) measure(setup setupFunc, run windowFunc) (time.Duration, error) {
	c := e.cfg
	if err := run(nil, time.Now().Add(c.warmup())); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	n := c.windows()
	length := c.measure() / time.Duration(n)
	sw := stopwatch{tr: e.tr}
	kernel := newHostKernel()
	var setups, kernels []float64
	var setupSum, total time.Duration
	wins := make([]*window, 0, n)
	for i := 0; i < n; i++ {
		if i%setupEvery == 0 {
			runtime.GC()
			start := time.Now()
			cleanup, err := setup(&sw)
			d := time.Since(start)
			if cleanup != nil {
				cleanup()
			}
			if err != nil {
				return 0, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, d.Seconds())
			setupSum += d
			runtime.GC()
		}

		w := &window{}
		e.tr.record(true)
		start := time.Now()
		err := run(w, start.Add(length))
		w.dur = time.Since(start)
		e.tr.record(false)
		total += w.dur
		wins = append(wins, w)
		if err != nil {
			return 0, err
		}
		kernels = append(kernels, kernel.run().Seconds())
	}
	quietKernel, quietSetup := quietMedian(kernels), quietMedian(setups)
	scale := kernelNominal.Seconds() / quietKernel
	fmt.Printf("host kernel: quiet %.6g ms, median %.6g ms over %d runs; timings scaled by %.6g; quiet set-up %.6g s unscaled\n",
		1e3*quietKernel, 1e3*median(kernels), len(kernels), scale, quietSetup)
	e.r.set("setup_s", quietSetup*scale)
	for _, l := range []layer{layerTopo, layerWorkload, layerCore, layerSim, layerService} {
		e.r.set(l.String()+".setup_pct", pct(float64(sw.d[l]), float64(setupSum)))
	}
	e.finishWindows(wins, scale)
	return total, nil
}

// finishWindows reports the op latency and packet rate of the quiet
// windows, scaled to the nominal host speed, and the generator's
// lateness over all windows.
func (e *env) finishWindows(wins []*window, scale float64) {
	var lateMS []float64
	for _, w := range wins {
		lateMS = append(lateMS, w.lateMS...)
	}
	slices.SortStableFunc(wins, func(a, b *window) int { return cmp.Compare(a.meanOp(), b.meanOp()) })
	k := quiet(len(wins))
	var opMS []float64
	var packets float64
	var dur time.Duration
	for _, w := range wins[:k] {
		opMS = append(opMS, w.opMS...)
		packets += w.packets
		dur += w.dur
	}
	if len(opMS) == 0 {
		e.r.fail("no operation completed in the quiet windows")
		return
	}
	slices.Sort(opMS)
	slices.Sort(lateMS)
	fmt.Printf("windows %d quiet %d: mean_op_ms %.6g..%.6g in the quiet ones, median %.6g and max %.6g over all; quiet op_ms p50 %.6g p99 %.6g unscaled over %d ops\n",
		len(wins), k, wins[0].meanOp(), wins[k-1].meanOp(), wins[len(wins)/2].meanOp(), wins[len(wins)-1].meanOp(),
		quantile(opMS, 0.5), quantile(opMS, 0.99), len(opMS))
	e.r.set("pkts_per_s", packets/dur.Seconds()/scale)
	e.r.set("op_ms_p50", quantile(opMS, 0.5)*scale)
	e.r.set("gen.late_ms_p99", quantile(lateMS, 0.99))
	e.r.set("gen.late_ms_max", lateMS[len(lateMS)-1])
}

// closedLoop returns a windowFunc that calls op back to back. Each op
// runs in a gen span; its lateness is the generator's gap since the
// previous op ended. op records its results into w when w is not nil.
func (e *env) closedLoop(op func(i int, w *window) error) windowFunc {
	i := 0
	return func(w *window, end time.Time) error {
		prev := time.Now()
		for ; ; i++ {
			t0 := time.Now()
			if !t0.Before(end) {
				return nil
			}
			e.tr.begin(layerGen, "op", int64(i))
			err := op(i, w)
			e.tr.end()
			t1 := time.Now()
			e.r.op(err)
			if w != nil {
				w.add(t1.Sub(t0), t0.Sub(prev))
			}
			prev = t1
		}
	}
}

// liveHeap reports the heap in use after a forced collection, with the
// workload's system still alive and the benchmark's own per-op samples
// released, so that it measures the system rather than the run length.
func (e *env) liveHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.r.set("live_heap_mb", float64(ms.HeapInuse)/(1<<20))
}

// setBusy reports each layer's self time as a share of the measured
// time.
func (e *env) setBusy(self [numLayers]time.Duration, wall time.Duration) {
	for _, l := range []layer{layerGen, layerCore, layerSim, layerDynamic, layerService, layerHTTP, layerPersist} {
		e.r.set(l.String()+".busy_pct", pct(float64(self[l]), float64(wall)))
	}
}
